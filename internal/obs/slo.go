package obs

// SLOConfig sets the deadline-miss budget. The zero value selects the
// paper's own result as the objective: at most 5 misses per 10,000
// cycles (§V reports ~5/10k for the four-thread parallel strategies).
type SLOConfig struct {
	// TargetPer10k is the allowed misses per 10,000 cycles (default 5).
	TargetPer10k float64
	// WindowCycles is the rolling budget window in cycles (default
	// 10,000 — the paper's measurement unit).
	WindowCycles int
}

// WithDefaults fills the zero fields with the paper's budget.
func (c SLOConfig) WithDefaults() SLOConfig {
	if c.TargetPer10k <= 0 {
		c.TargetPer10k = 5
	}
	if c.WindowCycles <= 0 {
		c.WindowCycles = 10000
	}
	return c
}

// sloWindow tracks deadline misses over an exact rolling window of
// cycles using a preallocated bitset: one bit per cycle, O(1)
// allocation-free update (the evicted cycle's bit adjusts the count).
type sloWindow struct {
	cfg    SLOConfig
	bits   []uint64
	pos    int // next cycle's bit index
	filled int // cycles recorded, capped at WindowCycles
	misses int // misses among the window's cycles
	// exhausted latches "window misses exceed the budget" for
	// crossing-edge detection (the flight-recorder trigger).
	exhausted bool
}

func newSLOWindow(cfg SLOConfig) *sloWindow {
	cfg = cfg.WithDefaults()
	return &sloWindow{
		cfg:  cfg,
		bits: make([]uint64, (cfg.WindowCycles+63)/64),
	}
}

// add records one cycle. It returns true exactly when this cycle pushes
// the window's misses past the allowed budget (a crossing, not a level,
// so one burst triggers one incident).
func (w *sloWindow) add(miss bool) (crossed bool) {
	word, bit := w.pos/64, uint(w.pos%64)
	old := w.bits[word]>>bit&1 == 1
	if w.filled == w.cfg.WindowCycles && old {
		w.misses--
	}
	if miss {
		w.bits[word] |= 1 << bit
		w.misses++
	} else {
		w.bits[word] &^= 1 << bit
	}
	w.pos++
	if w.pos == w.cfg.WindowCycles {
		w.pos = 0
	}
	if w.filled < w.cfg.WindowCycles {
		w.filled++
	}
	allowed := w.allowed()
	if float64(w.misses) > allowed {
		if !w.exhausted {
			w.exhausted = true
			return true
		}
	} else if float64(w.misses) <= allowed*0.5 {
		// Re-arm only after the window has recovered to half budget —
		// hysteresis against re-triggering on every miss of a long burst.
		w.exhausted = false
	}
	return false
}

// allowed is the miss budget for the currently filled window.
func (w *sloWindow) allowed() float64 {
	return w.cfg.TargetPer10k / 10000 * float64(w.filled)
}

// SLOStatus is the budget tracker's point-in-time view.
type SLOStatus struct {
	// TargetPer10k and WindowCycles echo the configuration.
	TargetPer10k float64 `json:"target_per_10k"`
	WindowCycles int     `json:"window_cycles"`

	// TotalCycles and TotalMisses are whole-run counters.
	TotalCycles uint64 `json:"total_cycles"`
	TotalMisses uint64 `json:"total_misses"`

	// WindowFilled is how many cycles the rolling window currently
	// holds; WindowMisses how many of them missed; AllowedMisses the
	// budget for that many cycles.
	WindowFilled  int     `json:"window_filled"`
	WindowMisses  int     `json:"window_misses"`
	AllowedMisses float64 `json:"allowed_misses"`

	// BudgetRemaining is the unspent fraction of the window budget,
	// clamped to [0, 1]: 1 = clean, 0 = exhausted.
	BudgetRemaining float64 `json:"budget_remaining"`
	// Exhausted reports the window is over budget right now.
	Exhausted bool `json:"exhausted"`

	// BurnRate1m/5m/15m are the observed miss rate over each wall-clock
	// window divided by the target rate — the standard SRE burn rate
	// (1.0 = spending exactly the budget; >1 = on course to exhaust it).
	BurnRate1m  float64 `json:"burn_rate_1m"`
	BurnRate5m  float64 `json:"burn_rate_5m"`
	BurnRate15m float64 `json:"burn_rate_15m"`
}

// status assembles the view (sink mutex held).
func (w *sloWindow) status(totalCycles, totalMisses uint64, r *ring) SLOStatus {
	s := SLOStatus{
		TargetPer10k:  w.cfg.TargetPer10k,
		WindowCycles:  w.cfg.WindowCycles,
		TotalCycles:   totalCycles,
		TotalMisses:   totalMisses,
		WindowFilled:  w.filled,
		WindowMisses:  w.misses,
		AllowedMisses: w.allowed(),
		Exhausted:     w.exhausted,
	}
	if s.AllowedMisses > 0 {
		rem := (s.AllowedMisses - float64(s.WindowMisses)) / s.AllowedMisses
		if rem < 0 {
			rem = 0
		}
		if rem > 1 {
			rem = 1
		}
		s.BudgetRemaining = rem
	} else if s.WindowMisses == 0 {
		s.BudgetRemaining = 1
	}
	target := w.cfg.TargetPer10k / 10000
	burn := func(seconds int) float64 {
		cycles, misses := r.windowSums(seconds)
		if cycles == 0 || target <= 0 {
			return 0
		}
		return float64(misses) / float64(cycles) / target
	}
	s.BurnRate1m = burn(60)
	s.BurnRate5m = burn(300)
	s.BurnRate15m = burn(900)
	return s
}
