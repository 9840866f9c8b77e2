// Package hardware is what is left of the Hardware Access layer of DJ
// Star's architecture (paper Fig. 2): CPU-affinity pinning. Shard layers
// pin each worker pool to a disjoint CPU set so sessions on one shard
// never preempt another shard's workers — the capacity-isolation half of
// server-based multiprocessor scheduling. Linux binds threads with
// sched_setaffinity; every other platform is a documented no-op (the
// fleet still partitions admission capacity, it just cannot enforce the
// partition on the cores).
package hardware

import "fmt"

// SplitCPUs partitions CPUs 0..total-1 into n disjoint, contiguous,
// near-equal sets — one per shard. When total < n the trailing sets are
// empty (those shards run unpinned); the remainder CPUs go to the
// leading sets so no set differs from another by more than one CPU.
func SplitCPUs(total, n int) [][]int {
	if n <= 0 {
		return nil
	}
	sets := make([][]int, n)
	if total <= 0 {
		return sets
	}
	base, rem := total/n, total%n
	cpu := 0
	for i := 0; i < n; i++ {
		size := base
		if i < rem {
			size++
		}
		for j := 0; j < size; j++ {
			sets[i] = append(sets[i], cpu)
			cpu++
		}
	}
	return sets
}

// cpuMask builds a sched_setaffinity bitmask (1024 CPUs) from a CPU list.
func cpuMask(cpus []int) ([16]uint64, error) {
	var mask [16]uint64
	for _, c := range cpus {
		if c < 0 || c >= len(mask)*64 {
			return mask, fmt.Errorf("hardware: cpu %d out of range [0, %d)", c, len(mask)*64)
		}
		mask[c/64] |= 1 << (uint(c) % 64)
	}
	return mask, nil
}
