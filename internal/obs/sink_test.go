package obs

import (
	"math"
	"path/filepath"
	"testing"
	"time"
)

func TestHistogramBucketMapping(t *testing.T) {
	// Everything below the 1.024 µs floor lands in bucket 0.
	for _, ns := range []int64{-5, 0, 1, 1023} {
		if b := bucketOf(ns); b != 0 {
			t.Fatalf("bucketOf(%d) = %d, want 0", ns, b)
		}
	}
	// Bucket boundaries are inclusive upper bounds: a value equal to
	// bucketUpperNS(b) must map to b, and +1 must map to b+1.
	for b := 0; b < histBuckets-1; b++ {
		up := bucketUpperNS(b)
		if got := bucketOf(up); got != b {
			t.Fatalf("bucketOf(upper(%d)=%d) = %d, want %d", b, up, got, b)
		}
		if got := bucketOf(up + 1); got != b+1 {
			t.Fatalf("bucketOf(upper(%d)+1=%d) = %d, want %d", b, up+1, got, b+1)
		}
	}
	// Upper bounds are strictly increasing.
	for b := 1; b < histBuckets; b++ {
		if bucketUpperNS(b) <= bucketUpperNS(b-1) {
			t.Fatalf("upper(%d)=%d <= upper(%d)=%d", b, bucketUpperNS(b), b-1, bucketUpperNS(b-1))
		}
	}
	// Log-linear sub-bucketing bounds relative error: the bucket width
	// over its lower bound is at most 1/histSub above the floor region.
	for b := histSub + 1; b < histBuckets; b++ {
		lo, hi := bucketUpperNS(b-1)+1, bucketUpperNS(b)
		if ratio := float64(hi-lo+1) / float64(lo); ratio > 1.0/histSub+1e-9 {
			t.Fatalf("bucket %d relative width %.4f > %.4f", b, ratio, 1.0/histSub)
		}
	}
}

func TestHistogramRecordAndBuckets(t *testing.T) {
	var h Histogram
	// 300 µs and 2.5 ms — typical APC values at both ends.
	h.RecordNS(300_000)
	h.RecordNS(300_000)
	h.RecordNS(2_500_000)
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3", h.Count())
	}
	if got, want := h.SumSeconds(), 3.1e-3; math.Abs(got-want) > 1e-12 {
		t.Fatalf("sum = %v s, want %v", got, want)
	}
	bs := h.Buckets()
	if len(bs) < 2 {
		t.Fatalf("buckets = %v, want at least a populated and a +Inf bucket", bs)
	}
	last := bs[len(bs)-1]
	if !math.IsInf(last.UpperSeconds, 1) || last.CumulativeCount != 3 {
		t.Fatalf("+Inf bucket = %+v, want cumulative 3", last)
	}
	// Cumulative counts are monotone and end at the total.
	prev := uint64(0)
	for _, b := range bs {
		if b.CumulativeCount < prev {
			t.Fatalf("cumulative counts not monotone: %v", bs)
		}
		prev = b.CumulativeCount
	}
	// The quantile estimate brackets the recorded values within bucket
	// resolution (≤ 12.5 % high).
	if q := h.QuantileSeconds(0.5); q < 300e-6 || q > 300e-6*1.3 {
		t.Fatalf("p50 = %v s, want ≈ 300 µs", q)
	}
	if q := h.QuantileSeconds(1.0); q < 2.5e-3 || q > 2.5e-3*1.3 {
		t.Fatalf("p100 = %v s, want ≈ 2.5 ms", q)
	}
}

func TestHistogramRecordDoesNotAllocate(t *testing.T) {
	var h Histogram
	n := testing.AllocsPerRun(1000, func() { h.RecordNS(1_500_000) })
	if n != 0 {
		t.Fatalf("Histogram.RecordNS allocates %.1f per op, want 0", n)
	}
}

func TestRingAdvanceAndSkips(t *testing.T) {
	var r ring
	s := r.slotFor(100)
	s.Cycles = 10
	s.Misses = 1
	// Advancing 3 seconds leaves two zero slots for the skipped seconds.
	s = r.slotFor(103)
	s.Cycles = 20
	if r.valid != 4 {
		t.Fatalf("valid = %d, want 4", r.valid)
	}
	got := r.lastN(4)
	if len(got) != 4 {
		t.Fatalf("lastN(4) = %d slots, want 4", len(got))
	}
	wantCycles := []uint64{10, 0, 0, 20}
	for i, w := range wantCycles {
		if got[i].Cycles != w {
			t.Fatalf("slot %d cycles = %d, want %d (%+v)", i, got[i].Cycles, w, got)
		}
		if got[i].UnixSec != int64(100+i) {
			t.Fatalf("slot %d sec = %d, want %d", i, got[i].UnixSec, 100+i)
		}
	}
	cycles, misses := r.windowSums(4)
	if cycles != 30 || misses != 1 {
		t.Fatalf("windowSums = %d/%d, want 30/1", cycles, misses)
	}
	// A window smaller than the filled depth only sees recent slots.
	cycles, _ = r.windowSums(1)
	if cycles != 20 {
		t.Fatalf("windowSums(1) = %d, want 20", cycles)
	}
}

func TestRingClockBackwards(t *testing.T) {
	var r ring
	r.slotFor(100).Cycles = 1
	// An older timestamp folds into the current slot instead of
	// corrupting the series.
	s := r.slotFor(50)
	s.Cycles++
	if r.valid != 1 {
		t.Fatalf("valid = %d, want 1 (no backwards growth)", r.valid)
	}
	if cur := r.current(); cur.Cycles != 2 || cur.UnixSec != 100 {
		t.Fatalf("current = %+v, want 2 cycles at sec 100", cur)
	}
}

func TestRingWrapAround(t *testing.T) {
	var r ring
	for sec := int64(0); sec < RingSeconds+10; sec++ {
		r.slotFor(sec).Cycles = 1
	}
	if r.valid != RingSeconds {
		t.Fatalf("valid = %d, want %d", r.valid, RingSeconds)
	}
	got := r.lastN(RingSeconds)
	if got[0].UnixSec != 10 || got[len(got)-1].UnixSec != RingSeconds+9 {
		t.Fatalf("window spans %d..%d, want 10..%d",
			got[0].UnixSec, got[len(got)-1].UnixSec, RingSeconds+9)
	}
}

// TestRingSkipsWholeRetentionInOnePass: a gap of at least the retention
// (a parked session, a suspended VM, a forward clock step) relays the
// ring out in O(RingSeconds) instead of walking the gap second by second
// under the cycle-thread mutex, with the result the walk would have
// left: all-zero history, consecutive seconds ending at the new one.
func TestRingSkipsWholeRetentionInOnePass(t *testing.T) {
	for _, gap := range []int64{RingSeconds, RingSeconds + 7, 1 << 40} {
		var r ring
		r.slotFor(100).Cycles = 9
		sec := 100 + gap
		done := make(chan *RingSlot, 1)
		go func() { done <- r.slotFor(sec) }()
		var cur *RingSlot
		select {
		case cur = <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("slotFor across a %d s gap still running after 2 s", gap)
		}
		cur.Cycles = 3
		if r.valid != RingSeconds {
			t.Fatalf("gap %d: valid = %d, want %d", gap, r.valid, RingSeconds)
		}
		got := r.lastN(RingSeconds)
		for i, s := range got {
			want := RingSlot{UnixSec: sec - int64(RingSeconds-1-i)}
			if i == RingSeconds-1 {
				want.Cycles = 3
			}
			if s != want {
				t.Fatalf("gap %d: slot %d = %+v, want %+v", gap, i, s, want)
			}
		}
		// The ring keeps advancing normally afterwards.
		r.slotFor(sec + 2).Cycles = 1
		got = r.lastN(3)
		if got[0].UnixSec != sec || got[0].Cycles != 3 || got[1] != (RingSlot{UnixSec: sec + 1}) || got[2].Cycles != 1 {
			t.Fatalf("gap %d: after advancing: %+v", gap, got)
		}
	}
}

func TestSLOWindowCrossingAndRearm(t *testing.T) {
	// Budget: 5 per 10k over a 1000-cycle window → allowed = 0.5 when
	// filled, so the 1st miss in a full window crosses.
	w := newSLOWindow(SLOConfig{TargetPer10k: 5, WindowCycles: 1000})
	for i := 0; i < 1000; i++ {
		if w.add(false) {
			t.Fatal("clean cycle crossed the budget")
		}
	}
	if crossed := w.add(true); !crossed {
		t.Fatal("first over-budget miss did not report a crossing")
	}
	// Level-triggered repeats must not re-report: still over budget.
	if crossed := w.add(true); crossed {
		t.Fatal("second miss re-reported while already exhausted")
	}
	if !w.exhausted {
		t.Fatal("window not latched exhausted")
	}
	// Recovery: clean cycles evict the misses; once the window is back
	// at ≤ half budget the trigger re-arms and a new burst crosses again.
	for i := 0; i < 1100; i++ {
		w.add(false)
	}
	if w.misses != 0 || w.exhausted {
		t.Fatalf("window after recovery: misses=%d exhausted=%v, want 0/false", w.misses, w.exhausted)
	}
	if crossed := w.add(true); !crossed {
		t.Fatal("post-recovery burst did not cross again")
	}
}

func TestSLOWindowExactEviction(t *testing.T) {
	// A miss leaves the window exactly WindowCycles later.
	w := newSLOWindow(SLOConfig{TargetPer10k: 5, WindowCycles: 64})
	w.add(true)
	for i := 0; i < 63; i++ {
		w.add(false)
	}
	if w.misses != 1 {
		t.Fatalf("misses before eviction = %d, want 1", w.misses)
	}
	w.add(false) // the 65th cycle evicts the miss
	if w.misses != 0 {
		t.Fatalf("misses after eviction = %d, want 0", w.misses)
	}
}

func TestSLOStatus(t *testing.T) {
	c := NewSink(SinkConfig{Strategy: "busy", SLO: SLOConfig{TargetPer10k: 5, WindowCycles: 1000}})
	sec := int64(1000)
	for i := 0; i < 2000; i++ {
		miss := i%1000 == 0 // 2 misses total, 1 in the current window
		c.RecordCycle(uint64(i+1), sec+int64(i/100), 1_000_000, 500_000, miss, 0)
	}
	s := c.SLO()
	if s.TotalCycles != 2000 || s.TotalMisses != 2 {
		t.Fatalf("totals = %d/%d, want 2000/2", s.TotalCycles, s.TotalMisses)
	}
	if s.WindowFilled != 1000 || s.WindowMisses != 1 {
		t.Fatalf("window = %d/%d, want 1 miss of 1000", s.WindowMisses, s.WindowFilled)
	}
	if s.AllowedMisses != 0.5 || !s.Exhausted {
		t.Fatalf("allowed=%v exhausted=%v, want 0.5/true", s.AllowedMisses, s.Exhausted)
	}
	if s.BudgetRemaining != 0 {
		t.Fatalf("budget remaining = %v, want 0 (overspent)", s.BudgetRemaining)
	}
	// Burn rate: 2 misses / 2000 cycles = 1e-3 rate vs 5e-4 target = 2×.
	if math.Abs(s.BurnRate1m-2.0) > 1e-9 {
		t.Fatalf("burn rate 1m = %v, want 2.0", s.BurnRate1m)
	}
}

func TestSinkRecordCycleDoesNotAllocate(t *testing.T) {
	c := NewSink(SinkConfig{Strategy: "busy"})
	sec := int64(7_000_000)
	i := int64(0)
	n := testing.AllocsPerRun(2000, func() {
		i++
		c.RecordCycle(uint64(i), sec+i/500, 1_200_000, 450_000, i%400 == 0, 1)
	})
	if n != 0 {
		t.Fatalf("Sink.RecordCycle allocates %.1f per op, want 0", n)
	}
}

func TestSinkEventDoesNotAllocate(t *testing.T) {
	s := NewSink(SinkConfig{})
	s.RecordCycle(1, 500, 1_000_000, 400_000, false, 0)
	n := testing.AllocsPerRun(1000, func() { s.Event(Quarantine, 2, "FXA2") })
	if n != 0 {
		t.Fatalf("Sink.Event allocates %.1f per op, want 0", n)
	}
}

// TestSinkEventKinds drives every event kind through the one entry point
// and holds each to its row of the kind table: which Totals counter
// moves, which field of the current ring slot, what is retained, and
// whether the flight recorder fires and dumps.
func TestSinkEventKinds(t *testing.T) {
	cases := []struct {
		kind     Kind
		name     string
		total    Totals   // expected counter deltas
		slot     RingSlot // expected ring-slot deltas
		incident bool
	}{
		{Fault, "fault", Totals{Faults: 1}, RingSlot{Faults: 1}, false},
		{Quarantine, "quarantine", Totals{Faults: 1, Quarantines: 1}, RingSlot{Faults: 1, Quarantines: 1}, true},
		{Stall, "stall", Totals{Stalls: 1}, RingSlot{Stalls: 1}, true},
		{GovTransition, "governor", Totals{GovTransitions: 1}, RingSlot{}, false},
		{Admitted, "admission", Totals{}, RingSlot{}, false},
		{AdmittedDegraded, "admission", Totals{AdmissionDegrades: 1}, RingSlot{}, false},
		{PredictedOverload, "admission-predict", Totals{PredictedOverloads: 1}, RingSlot{}, false},
		{EditRejected, "edit-rejected", Totals{}, RingSlot{}, false},
		{EditRefused, "edit-rejected", Totals{RefusedEdits: 1}, RingSlot{}, false},
		{EditRollback, "edit-rollback", Totals{}, RingSlot{}, false},
		{PlanSwap, "plan-swap", Totals{}, RingSlot{}, false},
	}
	if len(cases) != len(kinds) {
		t.Fatalf("%d cases for %d kinds: every kind needs a row here", len(cases), len(kinds))
	}
	for _, tc := range cases {
		t.Run(tc.kind.String(), func(t *testing.T) {
			dir := t.TempDir()
			s := NewSink(SinkConfig{IncidentDir: dir})
			s.RecordCycle(1, 500, 1_000_000, 400_000, false, 0)
			before, slotBefore := s.Totals(), *s.ring.current()

			s.Event(tc.kind, 7, "detail")
			s.Flush()

			if tc.kind.String() != tc.name {
				t.Errorf("String() = %q, want %q", tc.kind.String(), tc.name)
			}
			want := before
			want.Faults += tc.total.Faults
			want.Quarantines += tc.total.Quarantines
			want.Stalls += tc.total.Stalls
			want.GovTransitions += tc.total.GovTransitions
			want.AdmissionDegrades += tc.total.AdmissionDegrades
			want.RefusedEdits += tc.total.RefusedEdits
			want.PredictedOverloads += tc.total.PredictedOverloads
			if tc.incident {
				want.Incidents++
			}
			if got := s.Totals(); got != want {
				t.Errorf("totals = %+v, want %+v", got, want)
			}
			wantSlot := slotBefore
			wantSlot.Faults += tc.slot.Faults
			wantSlot.Quarantines += tc.slot.Quarantines
			wantSlot.Stalls += tc.slot.Stalls
			if got := *s.ring.current(); got != wantSlot {
				t.Errorf("ring slot = %+v, want %+v", got, wantSlot)
			}
			wantEvents := []Event{{Cycle: 7, Kind: tc.name, Detail: "detail"}}
			if tc.incident {
				wantEvents = append(wantEvents, Event{Cycle: 7, Kind: tc.name})
			}
			got := s.scrape(1).events
			if len(got) != len(wantEvents) {
				t.Fatalf("retained %+v, want %+v", got, wantEvents)
			}
			for i := range got {
				if got[i] != wantEvents[i] {
					t.Errorf("event %d = %+v, want %+v", i, got[i], wantEvents[i])
				}
			}
			paths, _ := filepath.Glob(filepath.Join(dir, "incident-*.json"))
			if !tc.incident {
				if len(paths) != 0 {
					t.Errorf("dumped %v, want no bundle", paths)
				}
				return
			}
			if len(paths) != 1 {
				t.Fatalf("dumped %v, want one bundle", paths)
			}
			if inc, err := LoadIncident(paths[0]); err != nil || inc.Reason != tc.name || inc.Cycle != 7 {
				t.Errorf("bundle = %+v, %v; want reason %q at cycle 7", inc, err, tc.name)
			}
		})
	}
}

// TestSinkEventBeforeFirstCycle: an event that counts into the ring
// before any second exists (the admission gate's at construction) is
// counted in the totals and does not invent a ring slot.
func TestSinkEventBeforeFirstCycle(t *testing.T) {
	s := NewSink(SinkConfig{})
	s.Event(Fault, 0, "n")
	if tot := s.Totals(); tot.Faults != 1 {
		t.Fatalf("faults = %d, want 1", tot.Faults)
	}
	if s.ring.valid != 0 {
		t.Fatalf("ring grew to %d slots without a cycle", s.ring.valid)
	}
}

func TestSinkRatesTotalsAndGauges(t *testing.T) {
	s := NewSink(SinkConfig{})
	for i := 0; i < 100; i++ {
		s.RecordCycle(uint64(i+1), 500, 1_000_000, 400_000, i < 10, 2)
	}
	s.SetAdmissionBound(1800, 1100)
	s.RecordCycle(101, 500, 1_000_000, 400_000, false, 1)
	tot := s.Totals()
	if tot.Cycles != 101 || tot.DeadlineMisses != 10 {
		t.Fatalf("cycles/misses = %d/%d, want 101/10", tot.Cycles, tot.DeadlineMisses)
	}
	if tot.GovLevel != 1 || tot.AdmissionBoundUS != 1800 || tot.AdmissionHeadroom != 1100 {
		t.Fatalf("gauges = %+v, want level 1, bound 1800/1100", tot)
	}
	sc := s.scrape(1)
	if sc.cycleHz != 101 || math.Abs(sc.missRate-10.0/101) > 1e-12 {
		t.Fatalf("rates = %v Hz / %v, want 101 / %v", sc.cycleHz, sc.missRate, 10.0/101)
	}
	// The ring slot keeps the second's highest governor level.
	if slot := sc.series[0]; slot.Cycles != 101 || slot.Misses != 10 || slot.GovLevel != 2 {
		t.Fatalf("slot = %+v, want 101 cycles, 10 misses, gov 2", slot)
	}
}

// TestNilSinkIsDisabled: every method the engine and fleet call
// unguarded is a no-op on the nil (disabled) sink.
func TestNilSinkIsDisabled(t *testing.T) {
	var s *Sink
	s.RecordCycle(1, 1, 1, 1, true, 3)
	s.Event(Quarantine, 1, "n")
	s.SetShard("2")
	s.SetAdmissionBound(1, 1)
	s.Flush()
	if s.Shard() != "" || s.SLO() != (SLOStatus{}) || s.Totals() != (Totals{}) {
		t.Fatal("nil sink reported state")
	}
}
