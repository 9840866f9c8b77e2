package obs

// RingSeconds is the rolling time-series retention: one slot per second,
// 15 minutes deep — enough for the three standard SLO burn windows
// (1 m / 5 m / 15 m) and a post-mortem's lead-up view.
const RingSeconds = 900

// RingSlot is one second of aggregated engine activity.
type RingSlot struct {
	// UnixSec identifies the second (0 = slot never written).
	UnixSec int64 `json:"unix_sec"`
	// Cycles and Misses count APCs and deadline misses in the second.
	Cycles uint64 `json:"cycles"`
	Misses uint64 `json:"misses"`
	// APCSumNS accumulates APC time for the second's mean.
	APCSumNS int64 `json:"apc_sum_ns"`
	// Faults, Quarantines and Stalls count fault-tolerance events.
	Faults      uint64 `json:"faults"`
	Quarantines uint64 `json:"quarantines"`
	Stalls      uint64 `json:"stalls"`
	// GovLevel is the highest governor level seen in the second.
	GovLevel int32 `json:"gov_level"`
}

// ring is the fixed-size per-second series. All methods are called with
// the sink mutex held; the write path performs no allocation.
type ring struct {
	slots [RingSeconds]RingSlot
	// head indexes the slot for curSec; valid counts written slots.
	head   int
	curSec int64
	valid  int
}

// slotFor advances the ring to sec and returns its slot. Skipped seconds
// (idle engine) leave zero slots behind so rates stay honest.
func (r *ring) slotFor(sec int64) *RingSlot {
	if r.valid == 0 {
		r.curSec = sec
		r.valid = 1
		s := &r.slots[r.head]
		*s = RingSlot{UnixSec: sec}
		return s
	}
	if sec < r.curSec {
		// Clock went backwards (or an old timestamp): fold into the
		// current slot rather than corrupting the series.
		sec = r.curSec
	}
	if sec-r.curSec >= RingSeconds {
		// The whole retention was skipped (parked session, suspended VM,
		// forward clock step): every slot is stale, so lay the ring out
		// afresh in one pass instead of walking the gap second by second
		// under the cycle-thread mutex.
		for i := range r.slots {
			r.slots[i] = RingSlot{UnixSec: sec - int64(RingSeconds-1-i)}
		}
		r.head, r.curSec, r.valid = RingSeconds-1, sec, RingSeconds
	}
	for r.curSec < sec {
		r.curSec++
		r.head = (r.head + 1) % RingSeconds
		r.slots[r.head] = RingSlot{UnixSec: r.curSec}
		if r.valid < RingSeconds {
			r.valid++
		}
	}
	return &r.slots[r.head]
}

// current returns the slot being written, or nil before the first write.
func (r *ring) current() *RingSlot {
	if r.valid == 0 {
		return nil
	}
	return &r.slots[r.head]
}

// lastN copies the most recent n slots, oldest first (snapshot path;
// allocates).
func (r *ring) lastN(n int) []RingSlot {
	if n > r.valid {
		n = r.valid
	}
	if n <= 0 {
		return nil
	}
	out := make([]RingSlot, n)
	for i := 0; i < n; i++ {
		out[i] = r.slots[(r.head-n+1+i+RingSeconds)%RingSeconds]
	}
	return out
}

// windowSums aggregates cycles and misses over the most recent n slots
// (including the in-progress one).
func (r *ring) windowSums(n int) (cycles, misses uint64) {
	if n > r.valid {
		n = r.valid
	}
	for i := 0; i < n; i++ {
		s := &r.slots[(r.head-i+RingSeconds)%RingSeconds]
		cycles += s.Cycles
		misses += s.Misses
	}
	return cycles, misses
}
