// Command djbench regenerates every table and figure of the paper's
// evaluation (see EXPERIMENTS.md for the mapping).
//
// Usage:
//
//	djbench -experiment all                    # everything, paper settings
//	djbench -experiment table1 -cycles 10000   # Table I
//	djbench -experiment fig9 -quick            # fast smoke run
//
// Experiments: table1, fig4, fig8, fig9, fig10, fig11, fig12, deadlines,
// profile, threadsweep, ablation, staticvsonline, designspace, nodecosts,
// chaos, governor, admission, loadgen, all.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"

	"djstar/internal/exp"
)

func main() {
	opts := exp.Defaults(os.Stdout)
	flag.IntVar(&opts.Cycles, "cycles", opts.Cycles, "APC iterations per measurement (paper: 10000)")
	flag.Float64Var(&opts.Scale, "scale", opts.Scale, "node cost scale (1.0 = paper scale, 0 = pure DSP)")
	flag.IntVar(&opts.MaxThreads, "threads", opts.MaxThreads, "maximum thread count (paper: 4)")
	var (
		experiment = flag.String("experiment", "all", "experiment to run (table1, fig4, fig8, fig9, fig10, fig11, fig12, deadlines, profile, threadsweep, ablation, staticvsonline, designspace, nodecosts, chaos, governor, admission, loadgen, all)")
		quick      = flag.Bool("quick", false, "fast smoke settings (300 cycles, scale 0.05)")
		csvDir     = flag.String("csv", "", "also write table1.csv and fig9_samples.csv to this directory")
		httpAddr   = flag.String("http", "", "serve net/http/pprof on this address (e.g. :6060) while benchmarking")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile covering the selected experiments to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile taken after the experiments to this file")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "djbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "djbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Printf("(wrote %s)\n", *cpuProfile)
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "djbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "djbench: -memprofile: %v\n", err)
				return
			}
			fmt.Printf("(wrote %s)\n", *memProfile)
		}()
	}

	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "djbench: -http %s: %v\n", *httpAddr, err)
			os.Exit(1)
		}
		fmt.Printf("djbench: pprof at http://%s/debug/pprof/\n", ln.Addr())
		go func() { _ = http.Serve(ln, nil) }()
	}

	if *quick {
		opts = exp.Quick(os.Stdout)
	}

	fmt.Printf("djbench: %d cycles, scale %.2f, %d threads, GOMAXPROCS=%d NumCPU=%d\n",
		opts.Cycles, opts.Scale, opts.MaxThreads, runtime.GOMAXPROCS(0), runtime.NumCPU())
	if runtime.NumCPU() < opts.MaxThreads {
		fmt.Printf("WARNING: host has %d CPUs; parallel strategies cannot show real speedup\n", runtime.NumCPU())
	}
	fmt.Println()

	type driver struct {
		name string
		run  func(exp.Options) error
	}
	drivers := []driver{
		{"profile", wrap(exp.Profile)},
		{"fig4", wrap(exp.Fig4)},
		{"table1", func(o exp.Options) error {
			res, err := exp.Table1(o)
			if err != nil {
				return err
			}
			return writeCSV(*csvDir, "table1.csv", func(w io.Writer) error {
				return exp.WriteTable1CSV(w, res)
			})
		}},
		{"fig8", wrap(exp.Fig8)},
		{"fig9", func(o exp.Options) error {
			res, err := exp.Fig9(o)
			if err != nil {
				return err
			}
			return writeCSV(*csvDir, "fig9_samples.csv", func(w io.Writer) error {
				return exp.WriteSamplesCSV(w, res.Samples, exp.ParallelStrategies)
			})
		}},
		{"fig10", wrap(exp.Fig10)},
		{"fig11", wrap(exp.Fig11)},
		{"fig12", wrap(exp.Fig12)},
		{"deadlines", wrap(exp.Deadlines)},
		{"threadsweep", wrap(exp.ThreadSweep)},
		{"ablation", wrap(exp.Ablation)},
		{"staticvsonline", wrap(exp.StaticVsOnline)},
		{"designspace", wrap(exp.DesignSpace)},
		{"nodecosts", wrap(exp.NodeCosts)},
		{"chaos", wrap(exp.Chaos)},
		{"governor", wrap(exp.Governor)},
		{"admission", wrap(exp.Admission)},
		{"loadgen", wrap(exp.Loadgen)},
	}

	// Interrupts are honored at driver boundaries: the in-flight
	// experiment finishes (its engine Close restores the GC setting), the
	// remaining ones are skipped, and the exit is clean.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)

	ran := false
	for _, d := range drivers {
		select {
		case s := <-sig:
			fmt.Fprintf(os.Stderr, "djbench: %v — stopping after completed experiments\n", s)
			os.Exit(0)
		default:
		}
		if *experiment != "all" && *experiment != d.name {
			continue
		}
		ran = true
		fmt.Printf("=== %s ===\n", d.name)
		if err := d.run(opts); err != nil {
			fmt.Fprintf(os.Stderr, "djbench: %s: %v\n", d.name, err)
			os.Exit(1)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "djbench: unknown experiment %q\n", *experiment)
		flag.Usage()
		os.Exit(2)
	}
}

// writeCSV writes one CSV artifact when a directory was requested.
func writeCSV(dir, name string, write func(io.Writer) error) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := write(f); err != nil {
		return err
	}
	fmt.Printf("(wrote %s)\n", filepath.Join(dir, name))
	return nil
}

// wrap adapts a typed experiment driver to a uniform signature.
func wrap[T any](f func(exp.Options) (T, error)) func(exp.Options) error {
	return func(o exp.Options) error {
		_, err := f(o)
		return err
	}
}
