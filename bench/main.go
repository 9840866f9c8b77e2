// Command bench is the repository's benchmark: four workloads over the
// engine, the shared pool and the fleet's /v1 control plane, every
// number taken from outside the program by timing calls into public
// functions or reading public read-outs. See README.md in this
// directory; BENCHMARK.json at the repository root names the metrics.
//
// Run it from the repository root:
//
//	bash bench/run.sh                                  # every workload once
//	bash bench/run.sh -workload dsp-seq -reps 10       # ten seeds, medians and spreads
//	bash bench/run.sh -workload paper-apc -trace 1     # traced run: per-layer metrics
//	bash bench/check.sh                                # two sets, held against the bounds
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"djstar/internal/hardware"
)

// resultsSchema versions bench/out/results.json.
const resultsSchema = 1

// defaultSeconds is run_seconds in BENCHMARK.json.
const defaultSeconds = 20

// outcome is the last line a run prints: the contract between a child
// process, its parent and whoever drives the benchmark.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: all, "+strings.Join(workloadNames, ", "))
		seed     = flag.Uint64("seed", 1, "seed of the generated inputs; repetition i uses seed+i")
		seconds  = flag.Float64("seconds", defaultSeconds, "length of each measured window")
		trace    = flag.Int("trace", 0, "1 = traced run: spans to <out>/trace-<workload>.json, per-layer metrics")
		reps     = flag.Int("reps", 1, "repetitions per workload, each in its own process with its own seed")
		check    = flag.Bool("check", false, "run two sets of -reps and hold every end-to-end metric against its BENCHMARK.json bound")
		jsonPath = flag.String("json", "bench/out/results.json", "where to write the results document")
		child    = flag.Bool("child", false, "run one workload in this process (set by the parent)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	names := workloadNames
	if *workload != "all" {
		names = []string{*workload}
		if !slices.Contains(workloadNames, *workload) {
			fatal(fmt.Errorf("unknown workload %q (want all or one of %v)", *workload, workloadNames))
		}
	}
	if *seconds <= 0 || *reps < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("want -seconds > 0, -reps >= 1, -trace 0 or 1"))
	}

	if *child {
		out, err := runWorkload(fullParams(names[0], *seed, *seconds, *trace == 1))
		if err != nil {
			fatal(err)
		}
		printOutcome(out)
		if !out.Correct {
			os.Exit(1)
		}
		return
	}

	sets := 1
	if *check {
		sets = 2
	}
	doc := results{Schema: resultsSchema, Host: fingerprint(), Seed: *seed, Seconds: *seconds, Trace: *trace == 1}
	ok := true
	for set := 0; set < sets; set++ {
		for _, name := range names {
			for rep := 0; rep < *reps; rep++ {
				r := runRecord{Set: set, Workload: name, Seed: *seed + uint64(rep)}
				var err error
				r.outcome, err = spawn(r, *seconds, *trace, *reps == 1 && sets == 1)
				if err != nil {
					fatal(fmt.Errorf("%s seed %d: %w", name, r.Seed, err))
				}
				ok = ok && r.Correct
				doc.Runs = append(doc.Runs, r)
			}
		}
	}
	doc.summarize()
	if *reps > 1 || sets > 1 {
		doc.printSummary()
	}
	if *check && !doc.checkBounds() {
		ok = false
	}
	if err := doc.write(*jsonPath); err != nil {
		fatal(err)
	}
	if len(names) == 1 {
		printOutcome(doc.merged(names[0]))
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// printOutcome writes the contract line: one JSON object, value and
// unit per metric, as the last line of standard output.
func printOutcome(o outcome) {
	line := struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]any `json:"metrics"`
	}{o.Correct, o.Attempted, o.Failed, map[string]any{}}
	for name, m := range o.Metrics {
		line.Metrics[name] = struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// runWorkload is one child process's work. An untraced run measures the
// workload for p.seconds and reports the end-to-end metrics. A traced
// run reports the per-layer metrics instead: the workload untraced for
// an eighth of p.seconds (the overhead reference), traced for a quarter
// (the engine split on this workload, spans to the trace file), then
// the layer suite.
func runWorkload(p params) (outcome, error) {
	rec := newRecorder()
	var tr *tracer
	if !p.trace {
		if _, err := dispatch(p, nil, rec); err != nil {
			return outcome{}, err
		}
		rec.put("peak_rss_mb", peakRSSMB(), "MB", 1)
	} else {
		ref := p
		ref.trace, ref.seconds = false, p.seconds/8
		plain, err := dispatch(ref, nil, newRecorder())
		if err != nil {
			return outcome{}, err
		}
		tr = newTracer(1 << 17)
		quarter := p
		quarter.seconds = p.seconds / 4
		traced, err := dispatch(quarter, tr, rec)
		if err != nil {
			return outcome{}, err
		}
		rec.put("trace.overhead_ratio", traced/plain, "ratio", 1)
		if err := runSuite(p, tr, rec); err != nil {
			return outcome{}, err
		}
		if err := os.MkdirAll(p.outDir, 0o755); err != nil {
			return outcome{}, err
		}
		if err := tr.write(filepath.Join(p.outDir, "trace-"+p.workload+".json")); err != nil {
			return outcome{}, err
		}
		if d := tr.dropped.Load(); d > 0 {
			fmt.Fprintf(os.Stderr, "bench: trace buffer full, %d spans dropped\n", d)
		}
	}
	for _, name := range rec.order {
		m := rec.metrics[name]
		fmt.Printf("%-12s %-36s %14.4f %-6s n=%d\n", p.workload, name, m.Value, m.Unit, m.N)
	}
	for _, why := range rec.reasons {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", why)
	}
	if rec.attempted < 1 {
		rec.attempted = 1
	}
	return outcome{Correct: rec.failed == 0, Attempted: rec.attempted, Failed: rec.failed, Metrics: rec.metrics}, nil
}

// dispatch runs the named workload and returns its median APC in µs.
func dispatch(p params, tr *tracer, rec *recorder) (float64, error) {
	switch p.workload {
	case wlPaperAPC:
		return runEngine(p, tr, rec, "busy", 1)
	case wlDSPSeq:
		return runEngine(p, tr, rec, "seq", 0)
	case wlDSPPool:
		return runDSPPool(p, tr, rec)
	case wlFleetChurn:
		return runFleetChurn(p, tr, rec)
	}
	return 0, fmt.Errorf("unknown workload %q", p.workload)
}

// peakRSSMB is this process's high-water resident set (VmHWM); where
// /proc is missing it falls back to what the Go runtime obtained from
// the OS.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// spawn runs one workload repetition in a child process of this binary
// (a fresh heap, so peak_rss_mb means something) and parses its last
// line. echo passes the child's metric lines through.
func spawn(r runRecord, seconds float64, trace int, echo bool) (outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return outcome{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child",
		"-workload", r.Workload, "-seed", strconv.FormatUint(r.Seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run() // a child that found a violation exits 1 after printing its outcome

	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" && echo {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	var out outcome
	if err := json.Unmarshal([]byte(last), &out); err != nil {
		if runErr != nil {
			return outcome{}, fmt.Errorf("child failed: %w", runErr)
		}
		return outcome{}, fmt.Errorf("child printed no outcome: %w", err)
	}
	return out, nil
}

// host identifies the machine and toolchain a results document is from.
type host struct {
	CPU              string `json:"cpu"`
	NumCPU           int    `json:"nproc"`
	GOMAXPROCS       int    `json:"gomaxprocs"`
	GoVersion        string `json:"go_version"`
	Commit           string `json:"git_commit"`
	PinningSupported bool   `json:"pinning_supported"`
}

func fingerprint() host {
	h := host{
		CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", PinningSupported: hardware.PinningSupported(),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil { // not a git checkout: stays unknown
		h.Commit = strings.TrimSpace(string(b))
	}
	return h
}
