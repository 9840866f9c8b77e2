package faults

import (
	"testing"
	"time"
)

func TestPanicInjectionDeterministic(t *testing.T) {
	run := func() []uint64 {
		in := New(7, Spec{Kind: KindPanic, Node: "FX", Cycle: 3, Count: 2})
		var ran []uint64
		wrapped := in.Wrap("FX", func() { ran = append(ran, in.cycle.Load()) })
		for c := 1; c <= 6; c++ {
			in.BeginCycle()
			func() {
				defer func() {
					if r := recover(); r != nil {
						inj, ok := r.(Injected)
						if !ok {
							t.Fatalf("cycle %d: panic value %v, want Injected", c, r)
						}
						if inj.Node != "FX" || inj.Cycle != uint64(c) {
							t.Fatalf("bad Injected %+v at cycle %d", inj, c)
						}
					}
				}()
				wrapped()
			}()
		}
		return ran
	}
	a, b := run(), run()
	want := []uint64{1, 2, 5, 6} // cycles 3 and 4 panic
	if len(a) != len(want) {
		t.Fatalf("ran on cycles %v, want %v", a, want)
	}
	for i := range want {
		if a[i] != want[i] || b[i] != want[i] {
			t.Fatalf("runs diverge or mis-armed: %v / %v, want %v", a, b, want)
		}
	}
}

func TestWrapUntargetedNodeUnchanged(t *testing.T) {
	in := New(1, Spec{Kind: KindPanic, Node: "FX", Cycle: 1})
	base := func() {}
	if got := in.Wrap("Mixer", base); got == nil {
		t.Fatal("nil wrap")
	} else {
		in.BeginCycle()
		got() // must not panic
	}
	if in.Stats().Panics != 0 {
		t.Fatal("untargeted node injected")
	}
}

func TestStallAndSlowBurnTime(t *testing.T) {
	in := New(1,
		Spec{Kind: KindStall, Node: "A", Cycle: 1, Delay: 5 * time.Millisecond},
		Spec{Kind: KindSlow, Node: "A", Cycle: 2, Count: 2, Delay: 2 * time.Millisecond},
	)
	wrapped := in.Wrap("A", func() {})
	in.BeginCycle()
	start := time.Now()
	wrapped()
	if el := time.Since(start); el < 4*time.Millisecond {
		t.Fatalf("stall burned only %v", el)
	}
	in.BeginCycle()
	start = time.Now()
	wrapped()
	if el := time.Since(start); el < 1500*time.Microsecond {
		t.Fatalf("slow burned only %v", el)
	}
	st := in.Stats()
	if st.Stalls != 1 || st.Slows != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestJitterDeterministicAcrossRuns(t *testing.T) {
	fire := func(seed uint64) []uint64 {
		in := New(seed, Spec{Kind: KindJitter, Node: NodeWildcard, Cycle: 1, Count: 200,
			Delay: time.Microsecond, Prob: 0.3})
		wrapped := in.Wrap("N", func() {})
		var fired []uint64
		for c := 0; c < 200; c++ {
			in.BeginCycle()
			before := in.Stats().Jitters
			wrapped()
			if in.Stats().Jitters != before {
				fired = append(fired, in.cycle.Load())
			}
		}
		return fired
	}
	a, b := fire(42), fire(42)
	if len(a) == 0 || len(a) == 200 {
		t.Fatalf("jitter fired %d/200 times, want a strict subset", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("same seed diverged: %d vs %d firings", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at firing %d", i)
		}
	}
	if c := fire(43); len(c) == len(a) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical jitter")
		}
	}
}

func TestParse(t *testing.T) {
	specs, err := Parse("panic:FXA2@100x3, stall:Mixer@5000:150ms, jitter:*@1x10000:50us~0.01")
	if err != nil {
		t.Fatal(err)
	}
	want := []Spec{
		{Kind: KindPanic, Node: "FXA2", Cycle: 100, Count: 3},
		{Kind: KindStall, Node: "Mixer", Cycle: 5000, Delay: 150 * time.Millisecond},
		{Kind: KindJitter, Node: "*", Cycle: 1, Count: 10000, Delay: 50 * time.Microsecond, Prob: 0.01},
	}
	if len(specs) != len(want) {
		t.Fatalf("got %d specs, want %d", len(specs), len(want))
	}
	for i := range want {
		if specs[i] != want[i] {
			t.Fatalf("spec %d = %+v, want %+v", i, specs[i], want[i])
		}
	}
	// Round trip through String.
	again, err := Parse(specs[0].String() + "," + specs[1].String() + "," + specs[2].String())
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if again[i] != want[i] {
			t.Fatalf("round-trip spec %d = %+v, want %+v", i, again[i], want[i])
		}
	}
	for _, bad := range []string{
		"", "panic", "explode:FX@1", "panic:FX", "panic:FX@x", "stall:FX@1",
		"slow:FX@1", "panic:FX@1x0", "jitter:FX@1:1ms~2",
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) accepted", bad)
		}
	}
}

func TestArmedWindow(t *testing.T) {
	sp := Spec{Cycle: 10, Count: 3}
	for c, want := range map[uint64]bool{9: false, 10: true, 12: true, 13: false} {
		if sp.armed(c) != want {
			t.Fatalf("armed(%d) = %v", c, !want)
		}
	}
	one := Spec{Cycle: 5}
	if !one.armed(5) || one.armed(6) {
		t.Fatal("Count=0 must arm exactly one cycle")
	}
}
