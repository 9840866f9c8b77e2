// Package obs is the engine's observability layer, in two halves with
// two lifetimes.
//
// Collector is per plan: always-on per-node timing statistics,
// schedule-realization capture, and critical-path analysis over a
// compiled task graph. The paper's headline results are measurements of
// the schedule itself — the 295 µs infinite-processor makespan, the
// 327 µs simulated BUSY schedule, the Fig. 11 realization — so the
// collector is designed to observe every audio processing cycle without
// perturbing it: each worker appends its node executions to a private
// preallocated shard (no atomics, no locks, no allocation on the hot
// path), and the Execute caller merges the shards into the aggregates at
// cycle end. Readers (UI, HTTP endpoint, analyzers) take a mutex that
// the merge holds only briefly, once per cycle, off the node hot path.
//
// Sink is per engine: the longitudinal signals a fleet operator scrapes
// and alerts on — cycle-latency histograms, a rolling per-second series,
// an SLO deadline-miss budget, the OpenMetrics /metrics document, and a
// flight recorder that dumps a self-contained incident bundle when the
// budget blows, a node is quarantined, or the watchdog fires. The
// paper's headline result is itself an SLO — ~5 of 10,000 APC cycles
// miss the 2.902 ms deadline (§V) — so the budget defaults to exactly
// that target. Everything the sink records on the audio path is
// allocation-free, under one mutex taken once per cycle.
package obs

import (
	"slices"
	"sync"

	"djstar/internal/graph"
	"djstar/internal/sched"
)

// Config tunes a Collector. The zero value (plus Workers) selects the
// defaults: a trace sample every 32nd cycle kept in an 8-deep ring.
type Config struct {
	// Workers is the shard count — the scheduler's Threads(). Required.
	Workers int
	// TraceEvery samples every Kth cycle's full realization into the
	// trace ring (default 32; negative disables trace capture).
	TraceEvery int
	// TraceRing is the number of retained sampled realizations
	// (default 8).
	TraceRing int
}

// Defaults for Config fields.
const (
	DefaultTraceEvery = 32
	DefaultTraceRing  = 8
)

// p99Window is the per-node sample window behind the p99 estimate.
const p99Window = 256

func (c Config) withDefaults() Config {
	if c.TraceEvery == 0 {
		c.TraceEvery = DefaultTraceEvery
	}
	if c.TraceRing <= 0 {
		c.TraceRing = DefaultTraceRing
	}
	return c
}

// shard is one worker's private event buffer for the current cycle.
// Only that worker writes it mid-cycle; the merge reads it at cycle end,
// ordered by the scheduler's completion signaling. The pad keeps the
// write-hot n counters of adjacent shards on separate cache lines.
type shard struct {
	n     int
	node  []int32
	start []int64
	end   []int64
	_     [64]byte
}

// nodeAgg is one node's running aggregate (guarded by Collector.mu).
type nodeAgg struct {
	count   uint64
	sumNS   int64
	minNS   int64
	maxNS   int64
	waitSum int64
	// win is the sliding sample window backing the p99 estimate.
	win  []int64
	wpos int
	wlen int
}

// Collector implements sched.Observer: it captures every cycle's
// schedule realization into per-worker shards and folds them into
// per-node aggregates and a sampled trace ring at cycle end. The
// BeginCycle/Record/EndCycle path is allocation-free.
type Collector struct {
	plan   *graph.Plan
	cfg    Config
	shards []shard

	// Merge scratch, touched only by the EndCycle caller: this cycle's
	// per-node worker assignment and absolute start/end timestamps.
	worker []int32
	start  []int64
	end    []int64
	base   int64

	// mu guards everything below: taken once per cycle by the merge and
	// by snapshot readers, never on the per-node path.
	mu     sync.Mutex
	cycles uint64
	agg    []nodeAgg
	ring   []CycleTrace
	seq    uint64 // sampled traces ever stored
}

var _ sched.Observer = (*Collector)(nil)

// NewCollector sizes a collector for the plan and worker count.
func NewCollector(p *graph.Plan, cfg Config) *Collector {
	cfg = cfg.withDefaults()
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	n := p.Len()
	c := &Collector{
		plan:   p,
		cfg:    cfg,
		shards: make([]shard, cfg.Workers),
		worker: make([]int32, n),
		start:  make([]int64, n),
		end:    make([]int64, n),
		agg:    make([]nodeAgg, n),
	}
	for i := range c.shards {
		c.shards[i].node = make([]int32, n)
		c.shards[i].start = make([]int64, n)
		c.shards[i].end = make([]int64, n)
	}
	for i := range c.agg {
		c.agg[i].minNS = int64(1) << 62
		c.agg[i].win = make([]int64, p99Window)
	}
	if cfg.TraceEvery > 0 {
		c.ring = make([]CycleTrace, cfg.TraceRing)
		for i := range c.ring {
			c.ring[i] = CycleTrace{
				Worker:  make([]int32, n),
				StartNS: make([]int64, n),
				EndNS:   make([]int64, n),
			}
		}
	}
	return c
}

// BeginCycle implements sched.Observer (Execute caller thread; the
// scheduler guarantees all workers are quiescent).
func (c *Collector) BeginCycle() {
	c.base = graph.NowNanos()
	for i := range c.shards {
		c.shards[i].n = 0
	}
}

// Record implements sched.Observer: worker-private shard append, no
// synchronization, no allocation.
func (c *Collector) Record(node, worker int32, start, end int64) {
	s := &c.shards[worker]
	i := s.n
	if i >= len(s.node) {
		return // cannot happen (every node runs once per cycle); stay safe
	}
	s.node[i] = node
	s.start[i] = start
	s.end[i] = end
	s.n = i + 1
}

// EndCycle implements sched.Observer: merge the shards into the
// aggregates on the Execute caller thread. Allocation-free; the mutex it
// takes is uncontended except against snapshot readers.
func (c *Collector) EndCycle() {
	for i := range c.worker {
		c.worker[i] = -1
	}
	for si := range c.shards {
		sh := &c.shards[si]
		for i := 0; i < sh.n; i++ {
			id := sh.node[i]
			c.worker[id] = int32(si)
			c.start[id] = sh.start[i]
			c.end[id] = sh.end[i]
		}
	}

	c.mu.Lock()
	c.cycles++
	for id := range c.agg {
		if c.worker[id] < 0 {
			continue
		}
		a := &c.agg[id]
		dur := c.end[id] - c.start[id]
		// Wait-before-start: gap between the node becoming runnable (its
		// last predecessor finishing; cycle start for sources) and its
		// actual start — the scheduling + blocking overhead the paper's
		// strategy comparison is about.
		ready := c.base
		for _, pr := range c.plan.PredsOf(int32(id)) {
			if c.worker[pr] >= 0 && c.end[pr] > ready {
				ready = c.end[pr]
			}
		}
		wait := c.start[id] - ready
		if wait < 0 {
			wait = 0
		}
		a.count++
		a.sumNS += dur
		a.waitSum += wait
		if dur < a.minNS {
			a.minNS = dur
		}
		if dur > a.maxNS {
			a.maxNS = dur
		}
		a.win[a.wpos] = dur
		a.wpos = (a.wpos + 1) % len(a.win)
		if a.wlen < len(a.win) {
			a.wlen++
		}
	}
	if c.cfg.TraceEvery > 0 && c.cycles%uint64(c.cfg.TraceEvery) == 0 {
		t := &c.ring[c.seq%uint64(len(c.ring))]
		t.Cycle = c.cycles
		t.BaseNS = c.base
		t.Workers = len(c.shards)
		copy(t.Worker, c.worker)
		for id := range c.worker {
			if c.worker[id] < 0 {
				t.StartNS[id], t.EndNS[id] = 0, 0
				continue
			}
			t.StartNS[id] = c.start[id] - c.base
			t.EndNS[id] = c.end[id] - c.base
		}
		c.seq++
	}
	c.mu.Unlock()
}

// Cycles returns the number of merged cycles.
func (c *Collector) Cycles() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cycles
}

// NodeStat is one node's aggregated timing snapshot.
type NodeStat struct {
	Node  int32  `json:"node"`
	Name  string `json:"name"`
	Count uint64 `json:"count"`
	// Exec-time stats in microseconds.
	MinUS  float64 `json:"min_us"`
	MeanUS float64 `json:"mean_us"`
	MaxUS  float64 `json:"max_us"`
	P99US  float64 `json:"p99_us"`
	// WaitMeanUS is the mean wait-before-start in microseconds.
	WaitMeanUS float64 `json:"wait_mean_us"`
}

// NodeStats returns the per-node aggregates. It allocates (snapshot
// path, not the audio path); the p99 is computed from the node's sample
// window on demand. Only the copy of the windows holds the lock every
// cycle's merge takes; the sorting happens after it is released.
func (c *Collector) NodeStats() []NodeStat {
	n := len(c.agg) // fixed at construction
	out := make([]NodeStat, n)
	wins := make([][]int64, n)
	buf := make([]int64, n*p99Window)
	c.mu.Lock()
	for id := range c.agg {
		a := &c.agg[id]
		s := &out[id]
		*s = NodeStat{Node: int32(id), Name: c.plan.Names[id], Count: a.count}
		if a.count > 0 {
			s.MinUS = float64(a.minNS) / 1e3
			s.MaxUS = float64(a.maxNS) / 1e3
			s.MeanUS = float64(a.sumNS) / float64(a.count) / 1e3
			s.WaitMeanUS = float64(a.waitSum) / float64(a.count) / 1e3
			wins[id] = buf[id*p99Window : id*p99Window+a.wlen]
			copy(wins[id], a.win)
		}
	}
	c.mu.Unlock()
	for id, w := range wins {
		if len(w) > 0 {
			slices.Sort(w)
			out[id].P99US = float64(w[int(0.99*float64(len(w)-1))]) / 1e3
		}
	}
	return out
}

// NodeMeansUS returns the mean measured duration of every node in
// microseconds, indexed by node ID — the critical-path analyzer's
// weights. Nodes never observed get 0.
func (c *Collector) NodeMeansUS() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]float64, len(c.agg))
	for id := range c.agg {
		if a := &c.agg[id]; a.count > 0 {
			out[id] = float64(a.sumNS) / float64(a.count) / 1e3
		}
	}
	return out
}

// CostModel exports the collector's per-node mean durations in µs as a
// cost table for plan compilation (graph.Fuse and upward ranks). Nodes
// never observed running report 0 — chain fusion treats them as free. ok
// is false until at least one full cycle has been merged, so callers can
// fall back to static design costs before any measurement exists.
func (c *Collector) CostModel() (costUS []float64, ok bool) {
	c.mu.Lock()
	cycles := c.cycles
	c.mu.Unlock()
	if cycles == 0 {
		return nil, false
	}
	return c.NodeMeansUS(), true
}

// Traces returns copies of every valid ring entry, oldest first.
func (c *Collector) Traces() []CycleTrace {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.seq
	if n > uint64(len(c.ring)) {
		n = uint64(len(c.ring))
	}
	out := make([]CycleTrace, 0, n)
	for i := uint64(0); i < n; i++ {
		src := &c.ring[(c.seq-n+i)%uint64(len(c.ring))]
		var dst CycleTrace
		copyTrace(&dst, src)
		out = append(out, dst)
	}
	return out
}

func copyTrace(dst *CycleTrace, src *CycleTrace) {
	dst.Cycle = src.Cycle
	dst.BaseNS = src.BaseNS
	dst.Workers = src.Workers
	dst.Worker = append(dst.Worker[:0], src.Worker...)
	dst.StartNS = append(dst.StartNS[:0], src.StartNS...)
	dst.EndNS = append(dst.EndNS[:0], src.EndNS...)
}
