package exp

import (
	"fmt"
	"sort"
	"strings"

	"djstar/internal/engine"
	"djstar/internal/rescon"
	"djstar/internal/stats"
)

// NodeCostsResult compares measured per-node durations against the
// DESIGN.md cost targets — the calibration audit behind every simulated
// number in the reproduction.
type NodeCostsResult struct {
	// Names, MeasuredUS and TargetUS are indexed by node ID.
	Names      []string
	MeasuredUS []float64
	TargetUS   []float64
	// MeanAbsErrPct is the mean |measured-target|/target over nodes with
	// a nonzero target.
	MeanAbsErrPct float64
}

// NodeCosts measures each node's average execution time and reports it
// next to the design target (rescon.PaperCostsUS). Large deviations mean
// the calibration (graph.Calibrate + Load.RunSince) is off on this host,
// which would undermine the Fig. 4 / Fig. 12 comparisons.
func NodeCosts(opts Options) (*NodeCostsResult, error) {
	opts.normalize()
	durs, plan, err := engine.MeasureNodeDurations(opts.graphConfig(), min(opts.Cycles, 2000))
	if err != nil {
		return nil, err
	}
	targets := rescon.PaperCostsUS(plan)

	res := &NodeCostsResult{
		Names:      plan.Names,
		MeasuredUS: durs,
		TargetUS:   targets,
	}
	var errSum float64
	var errN int
	for i := range durs {
		if targets[i] <= 0 {
			continue
		}
		e := (durs[i] - targets[i]) / targets[i]
		if e < 0 {
			e = -e
		}
		errSum += e
		errN++
	}
	if errN > 0 {
		res.MeanAbsErrPct = errSum / float64(errN) * 100
	}

	// Report grouped by node-name prefix (SP, FX, Channel, ...), sorted.
	type group struct {
		name         string
		n            int
		meas, target float64
	}
	groups := map[string]*group{}
	for i, name := range plan.Names {
		key := prefixOf(name)
		g := groups[key]
		if g == nil {
			g = &group{name: key}
			groups[key] = g
		}
		g.n++
		g.meas += durs[i]
		g.target += targets[i]
	}
	var keys []string
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var rows [][]string
	for _, k := range keys {
		g := groups[k]
		rows = append(rows, []string{
			g.name,
			fmt.Sprintf("%d", g.n),
			fmt.Sprintf("%.1f", g.target/float64(g.n)),
			fmt.Sprintf("%.1f", g.meas/float64(g.n)),
			fmt.Sprintf("%+.0f%%", (g.meas/g.target-1)*100),
		})
	}
	fprintf(opts.Out, "node cost audit: measured vs DESIGN.md targets (scale %.2f, %d cycles)\n",
		opts.Scale, min(opts.Cycles, 2000))
	fprintf(opts.Out, "%s", stats.RenderTable(
		[]string{"node class", "count", "target µs", "measured µs", "dev"}, rows))
	fprintf(opts.Out, "mean per-node deviation: %.1f%%\n", res.MeanAbsErrPct)
	fprintf(opts.Out, "(every node reads a few tenths of a µs high — the spin top-up checks the clock every\n")
	fprintf(opts.Out, " ~0.5 µs — which shows on the 2-4 µs control/meter targets; the audio nodes are the ones that matter)\n\n")
	return res, nil
}

// prefixOf groups node names into classes.
func prefixOf(name string) string {
	switch {
	case strings.HasPrefix(name, "SP"):
		return "SP filter"
	case strings.HasPrefix(name, "FX"):
		return "FX unit"
	case strings.HasPrefix(name, "Channel"):
		return "Channel"
	case strings.HasPrefix(name, "Ctrl"):
		return "Control"
	case strings.HasPrefix(name, "Meter"), name == "MasterVU", name == "CueVU",
		name == "Spectrum", name == "Loudness":
		return "Meter"
	default:
		return name
	}
}
