package fleet

import (
	"fmt"
	"runtime"
	"testing"

	"djstar/internal/engine"
	"djstar/internal/graph"
	"djstar/internal/hardware"
	"djstar/internal/sched"
)

// TestHelpersPerShard: for every split of 1–8 CPUs into 1–3 shards, one
// helper count serves every shard, it never exceeds what the smallest
// shard can run beside its driver, and it is 0 whenever a shard owns at
// most one CPU. Five CPUs over two shards used to get 2 and 1 helpers.
func TestHelpersPerShard(t *testing.T) {
	want := map[[2]int]int{{1, 1}: 0, {2, 1}: 1, {2, 2}: 0, {4, 2}: 1, {5, 2}: 1, {8, 3}: 1, {1, 3}: 0}
	for cpus := 1; cpus <= 8; cpus++ {
		for shards := 1; shards <= 3; shards++ {
			sets := hardware.SplitCPUs(cpus, shards)
			h := helpersPerShard(sets)
			smallest := cpus
			for _, set := range sets {
				smallest = min(smallest, len(set))
			}
			if h < 0 || (smallest <= 1 && h != 0) || (smallest > 1 && h != smallest-1) {
				t.Errorf("%d CPUs, %d shards (sets %v): %d helpers per shard", cpus, shards, sets, h)
			}
			if w, ok := want[[2]int{cpus, shards}]; ok && h != w {
				t.Errorf("%d CPUs, %d shards: %d helpers, want %d", cpus, shards, h, w)
			}
		}
	}
}

// TestDefaultWidthsAcceptDrainTargets: the pools the default sizing
// builds, for every split of 1–8 CPUs into 2–3 shards, take a session
// from any shard to any other — AttachMigrated refuses a destination
// wider than the session was sized for, which is what made Drain fail
// every session of the smaller shard on an odd split.
func TestDefaultWidthsAcceptDrainTargets(t *testing.T) {
	g, _ := graph.RandomDAG(graph.RandomSpec{Nodes: 12, EdgeProb: 0.2, Seed: 3})
	for _, n := range g.Nodes() {
		n.Run = func() {}
	}
	plan, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for cpus := 1; cpus <= 8; cpus++ {
		for shards := 2; shards <= 3; shards++ {
			t.Run(fmt.Sprintf("cpus%d/shards%d", cpus, shards), func(t *testing.T) {
				h := helpersPerShard(hardware.SplitCPUs(cpus, shards))
				pools := make([]*sched.Pool, shards)
				for i := range pools {
					p, err := sched.NewPool(h, 1)
					if err != nil {
						t.Fatal(err)
					}
					defer p.Close()
					pools[i] = p
				}
				for src := range pools {
					for dst := range pools {
						if src == dst {
							continue
						}
						s, err := pools[src].Attach(plan, sched.Options{})
						if err != nil {
							t.Fatal(err)
						}
						s.Execute()
						ns, err := pools[dst].AttachMigrated(s, sched.Options{})
						if err != nil {
							s.Close()
							t.Fatalf("shard %d -> %d: %v", src, dst, err)
						}
						ns.Execute()
						ns.Close()
					}
				}
			})
		}
	}
}

// TestDefaultFleetDrains: a fleet left at the default sizing gives every
// shard the same pool width, its controller counts that width (1 on a
// helper-less shard), and a drain moves every session.
func TestDefaultFleetDrains(t *testing.T) {
	cfg := testConfig()
	cfg.WorkersPerShard = 0
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h := helpersPerShard(hardware.SplitCPUs(runtime.NumCPU(), cfg.Shards))
	for _, sh := range f.Shards() {
		if w := sh.Pool().Workers(); w != h || sh.procs != min(h+1, runtime.GOMAXPROCS(0)) {
			t.Fatalf("shard %d: %d helpers, procs %d; want %d helpers and procs %d",
				sh.id, w, sh.procs, h, min(h+1, runtime.GOMAXPROCS(0)))
		}
	}
	for i := 0; i < 4; i++ {
		if _, _, err := f.AddSession(engine.SessionSpec{}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := f.Drain(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Moved == 0 {
		t.Fatalf("drain moved %d, failed %d: %v", res.Moved, res.Failed, res.Errors)
	}
}
