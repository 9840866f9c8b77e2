package exp

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"djstar/internal/apiv1"
	"djstar/internal/engine"
	"djstar/internal/fleet"
	"djstar/internal/graph"
	"djstar/internal/stats"
)

// LoadgenResult holds the fleet load-generation experiment (R8): churn
// thousands of sessions through a sharded fleet and find the
// sessions-per-core knee — the largest concurrency at which every
// shard's deadline-miss rollup stays within the 5-per-10k SLO.
type LoadgenResult struct {
	Shards int
	Cores  int

	// Levels is the concurrency ladder; per level the dwell-window
	// per-shard miss rates (per 10k) and whether all shards held SLO.
	Levels     []int
	MissPer10k [][]float64
	Healthy    []bool
	// AdmitLimited[i] records that the fleet's analytical gate refused
	// further sessions at this level (the level ran below target).
	AdmitLimited []bool

	// KneeSessions is the largest all-shards-healthy level reached;
	// KneePerCore is that divided by the core count.
	KneeSessions int
	KneePerCore  float64

	// Created counts every session constructed over the whole run
	// (churn included); Refused counts analytical refusals.
	Created int
	Refused int

	// Placements counts placement decisions; MaxHeadroomWins counts
	// those that went to a strict-best-headroom shard (the rest are
	// ties broken by session count).
	Placements      int
	MaxHeadroomWins int

	// DrainMoved is the mid-run shard-drain demo: sessions migrated off
	// shard 0. DrainGaps and DrainDoubles count cycle numbers skipped and
	// repeated, over every session created up to the end of the drain.
	DrainMoved   int
	DrainFailed  int
	DrainGaps    int64
	DrainDoubles int64
}

// cycleSeq checks that one session's cycle numbers, fed from
// Hooks.OnCycle on the cycle thread, arrive one apart: a number skipped
// is a gap, one repeated or gone backwards a double. The counts may be
// read from any thread.
type cycleSeq struct {
	last          uint64
	gaps, doubles atomic.Int64
}

func (c *cycleSeq) observe(ci engine.CycleInfo) {
	switch {
	case ci.Cycle > c.last+1:
		c.gaps.Add(1)
	case ci.Cycle <= c.last:
		c.doubles.Add(1)
	}
	c.last = ci.Cycle
}

// Loadgen drives the fleet the way a session frontend would: ramp
// concurrency up a doubling ladder, churn sessions at every level
// (destroy + create, exercising placement), watch per-shard SLO
// rollups, and drain a shard mid-run. Pacing follows the 2.902 ms
// packet clock, so misses mean real interference, not backlog.
func Loadgen(opts Options) (*LoadgenResult, error) {
	opts.normalize()
	quick := opts.Cycles < 1000

	shards := 2
	cores := runtime.NumCPU()
	res := &LoadgenResult{Shards: shards, Cores: cores}

	gcfg := opts.graphConfig()
	if opts.Scale <= 0 || opts.Scale > 0.1 {
		// Fleet capacity, not kernel fidelity, is under test: a small
		// scale keeps per-session work tiny so the knee is sessions per
		// core, not cycles per session.
		gcfg.Scale = 0.05
		gcfg.Calibration = Calib()
	}
	gcfg.TrackBars = min(opts.TrackBars, 4)
	gcfg.Tracks = deckTracks(gcfg.TrackBars)

	cfg := fleet.Config{
		Shards:           shards,
		SessionsPerShard: 1024,
	}
	cfg.Engine.Graph = gcfg
	cfg.Engine.Obs.Disable = true // thousands of sessions: no per-node rings
	var placements []apiv1.Placement
	cfg.OnPlacement = func(p apiv1.Placement) { placements = append(placements, p) }

	f, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	w := opts.Out
	fprintf(w, "R8 — fleet load generation: %d shards over %d cores, scale %.2f, paced at %s\n\n",
		shards, cores, gcfg.Scale, f.Period())

	var seqs []*cycleSeq
	create := func() bool {
		seq := &cycleSeq{}
		_, _, err := f.AddSession(engine.SessionSpec{Hooks: engine.Hooks{OnCycle: seq.observe}})
		if err != nil {
			res.Refused++
			return false
		}
		seqs = append(seqs, seq)
		res.Created++
		return true
	}

	// sloWindow samples every shard's rollup, dwells, and returns the
	// per-shard miss-per-10k over just the dwell window.
	dwell := 400 * time.Millisecond
	maxLevel := 512
	churnPerLevel := 8
	target := 1200 // cumulative created sessions the churn must reach
	if quick {
		dwell = 120 * time.Millisecond
		maxLevel = 32
		churnPerLevel = 2
		target = 48
	}
	sloWindow := func() []float64 {
		type cm struct{ c, m uint64 }
		before := make([]cm, shards)
		for i := 0; i < shards; i++ {
			st, _ := f.ShardStatus(i)
			before[i] = cm{st.SLO.Cycles, st.SLO.Misses}
		}
		graph.SleepUntil(graph.NowNanos() + int64(dwell))
		out := make([]float64, shards)
		for i := 0; i < shards; i++ {
			st, _ := f.ShardStatus(i)
			dc := st.SLO.Cycles - before[i].c
			dm := st.SLO.Misses - before[i].m
			if dc > 0 {
				out[i] = float64(dm) / float64(dc) * 1e4
			}
		}
		return out
	}

	// Ramp: double the live-session target until the SLO breaks or the
	// gate refuses growth.
	live := 0
	rows := [][]string{}
	for level := min(4, maxLevel); level <= maxLevel; level *= 2 {
		admitLimited := false
		for live < level {
			if !create() {
				admitLimited = true
				break
			}
			live++
		}
		// Churn at this level: destroy the oldest few, create anew —
		// placement decisions under asymmetric residual load.
		for i := 0; i < churnPerLevel; i++ {
			ss := f.Sessions()
			if len(ss) == 0 {
				break
			}
			_ = f.RemoveSession(ss[0].ID())
			live--
			if create() {
				live++
			}
		}
		miss := sloWindow()
		healthy := true
		for _, m := range miss {
			if m > 5 {
				healthy = false
			}
		}
		res.Levels = append(res.Levels, live)
		res.MissPer10k = append(res.MissPer10k, miss)
		res.Healthy = append(res.Healthy, healthy)
		res.AdmitLimited = append(res.AdmitLimited, admitLimited)
		if healthy && live > res.KneeSessions {
			res.KneeSessions = live
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", live),
			fmt.Sprintf("%.2f", float64(live)/float64(cores)),
			fmt.Sprintf("%.1f", miss[0]),
			fmt.Sprintf("%.1f", miss[1]),
			map[bool]string{true: "yes", false: "NO"}[healthy],
			map[bool]string{true: "yes", false: ""}[admitLimited],
		})
		if !healthy || admitLimited {
			break
		}
	}
	fprintf(w, "%s", stats.RenderTable([]string{"sessions", "per core", "shard0 miss/10k", "shard1 miss/10k", "SLO held", "admit-limited"}, rows))
	res.KneePerCore = float64(res.KneeSessions) / float64(cores)
	fprintf(w, "\nknee: %d sessions (%.2f per core) with every shard within 5/10k\n",
		res.KneeSessions, res.KneePerCore)

	// Drain demo: move everything off shard 0 at cycle boundaries, then
	// reopen it. Every session's cycle numbers must stay one apart
	// through the move.
	dr, err := f.Drain(0)
	if err != nil {
		return nil, err
	}
	res.DrainMoved, res.DrainFailed = dr.Moved, dr.Failed
	graph.SleepUntil(graph.NowNanos() + int64(dwell/2))
	for _, seq := range seqs {
		res.DrainGaps += seq.gaps.Load()
		res.DrainDoubles += seq.doubles.Load()
	}
	_ = f.Undrain(0)
	fprintf(w, "drain shard 0: %d sessions migrated (%d failed); cycle numbers over %d sessions: %d gaps, %d doubles\n",
		res.DrainMoved, res.DrainFailed, len(seqs), res.DrainGaps, res.DrainDoubles)

	// Churn to the cumulative-creation target at a comfortable level
	// (half the knee), proving placement and ID hygiene at volume.
	hold := res.KneeSessions / 2
	if hold < shards {
		hold = shards
	}
	for live > hold {
		ss := f.Sessions()
		_ = f.RemoveSession(ss[0].ID())
		live--
	}
	for res.Created < target {
		ss := f.Sessions()
		if len(ss) > 0 {
			_ = f.RemoveSession(ss[0].ID())
			live--
		}
		if create() {
			live++
		} else {
			break
		}
	}

	res.Placements = len(placements)
	for _, p := range placements {
		strict := true
		for _, c := range p.Candidates {
			if c.Shard != p.Shard && c.Fits && c.HeadroomUS > p.HeadroomUS+1e-6 {
				strict = false
			}
		}
		if strict {
			res.MaxHeadroomWins++
		}
	}
	fprintf(w, "churn: %d sessions created in total (%d analytical refusals), %d placements, %d to the max-headroom shard\n",
		res.Created, res.Refused, res.Placements, res.MaxHeadroomWins)
	if res.Created < target {
		fprintf(w, "NOTE: churn stopped early at %d/%d creations (admission-limited fleet)\n", res.Created, target)
	}
	return res, nil
}
