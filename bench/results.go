package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// results is bench/out/results.json: every run of one invocation and
// the per-metric summary over their repetitions.
type results struct {
	Schema  int         `json:"schema_version"`
	Host    host        `json:"host"`
	Seed    uint64      `json:"seed"`
	Seconds float64     `json:"seconds"`
	Trace   bool        `json:"trace"`
	Runs    []runRecord `json:"runs"`
	Summary []summary   `json:"summary"`
}

// runRecord is one child process's outcome. Set is 0 except under
// -check, which runs everything twice.
type runRecord struct {
	Set      int    `json:"set"`
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	outcome
}

// summary is one metric of one workload over the repetitions of one
// set: the median repetition with its extremes and the quartile spread
// as a share of the median.
type summary struct {
	Set      int     `json:"set"`
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Median   float64 `json:"median"`
	Min      float64 `json:"min"`
	Max      float64 `json:"max"`
	Spread   float64 `json:"spread"`
	Reps     int     `json:"reps"`
}

func (d *results) summarize() {
	type key struct {
		set      int
		workload string
		metric   string
	}
	values := map[key][]float64{}
	units := map[string]string{}
	var keys []key
	for _, r := range d.Runs {
		for name, m := range r.Metrics {
			k := key{r.Set, r.Workload, name}
			if _, seen := values[k]; !seen {
				keys = append(keys, k)
			}
			values[k] = append(values[k], m.Value)
			units[name] = m.Unit
		}
	}
	order := map[string]int{}
	for i, w := range workloadNames {
		order[w] = i
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.workload != b.workload {
			return order[a.workload] < order[b.workload]
		}
		if a.metric != b.metric {
			return a.metric < b.metric
		}
		return a.set < b.set
	})
	d.Summary = d.Summary[:0]
	for _, k := range keys {
		asc := sorted(values[k])
		d.Summary = append(d.Summary, summary{
			Set: k.set, Workload: k.workload, Metric: k.metric, Unit: units[k.metric],
			Median: median(asc), Min: asc[0], Max: asc[len(asc)-1],
			Spread: quartileSpread(asc), Reps: len(asc),
		})
	}
}

func (d *results) printSummary() {
	fmt.Printf("%-12s %-36s %3s %14s %-6s %14s %14s %8s %4s\n",
		"workload", "metric", "set", "median", "unit", "min", "max", "spread", "reps")
	for _, s := range d.Summary {
		fmt.Printf("%-12s %-36s %3d %14.4f %-6s %14.4f %14.4f %7.2f%% %4d\n",
			s.Workload, s.Metric, s.Set, s.Median, s.Unit, s.Min, s.Max, 100*s.Spread, s.Reps)
	}
}

// merged folds one workload's runs into a single outcome: operation
// counts summed, every metric at the median of its repetitions (of the
// first set).
func (d *results) merged(workload string) outcome {
	out := outcome{Correct: true, Metrics: map[string]metric{}}
	for _, r := range d.Runs {
		if r.Workload == workload {
			out.Correct = out.Correct && r.Correct
			out.Attempted += r.Attempted
			out.Failed += r.Failed
		}
	}
	for _, s := range d.Summary {
		if s.Workload == workload && s.Set == 0 {
			out.Metrics[s.Metric] = metric{Value: s.Median, Unit: s.Unit, N: s.Reps}
		}
	}
	return out
}

func (d *results) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// manifest is the part of BENCHMARK.json the benchmark itself reads.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readManifest(path string) (manifest, error) {
	var m manifest
	b, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(b, &m)
}

// checkBounds is the repeatability check over two sets of runs of the
// same code: for every end-to-end metric of every workload, the
// quartile spread of each set must stay within the metric's bound
// (setup_s excepted) and the second median may not be worse than the
// first by more than the bound.
func (d *results) checkBounds() bool {
	m, err := readManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -check needs BENCHMARK.json in the working directory:", err)
		return false
	}
	find := func(set int, workload, metric string) (summary, bool) {
		for _, s := range d.Summary {
			if s.Set == set && s.Workload == workload && s.Metric == metric {
				return s, true
			}
		}
		return summary{}, false
	}
	ok := true
	fmt.Printf("%-12s %-14s %12s %12s %8s %8s %8s %7s  %s\n",
		"workload", "metric", "median A", "median B", "worse", "spread A", "spread B", "bound", "verdict")
	for _, w := range workloadNames {
		for _, e := range m.EndToEnd {
			a, okA := find(0, w, e.Name)
			b, okB := find(1, w, e.Name)
			if !okA || !okB {
				continue
			}
			worse := (b.Median - a.Median) / a.Median
			if e.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > e.Bound {
				verdict = "MEDIANS DIFFER"
			} else if e.Name != "setup_s" && (a.Spread > e.Bound || b.Spread > e.Bound) {
				verdict = "SPREAD TOO WIDE"
			}
			ok = ok && verdict == "ok"
			fmt.Printf("%-12s %-14s %12.4f %12.4f %+7.2f%% %7.2f%% %7.2f%% %6.0f%%  %s\n",
				w, e.Name, a.Median, b.Median, 100*worse, 100*a.Spread, 100*b.Spread, 100*e.Bound, verdict)
		}
	}
	return ok
}
