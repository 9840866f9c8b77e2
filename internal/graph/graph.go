// Package graph implements DJ Star's central data structure: the audio
// task graph (paper §IV). Nodes are audio computations, edges are data
// dependencies. The package provides the DAG builder, validation, the
// depth-ordered queue ("nodes are inserted column by column and from left
// to right"), a compiled execution Plan consumed by the schedulers in
// package sched, the standard 67-node DJ Star graph, and a random-DAG
// generator for property tests.
package graph

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// Section labels the region of the mixer a node belongs to. Work stealing
// uses it to seed worker-local queues with same-section sources ("we
// categorize the source nodes as Deck A/B/C/D or Master", paper §V-C).
type Section int

const (
	SectionDeckA Section = iota
	SectionDeckB
	SectionDeckC
	SectionDeckD
	SectionMaster
	SectionControl
	numSections
)

// String returns the section label.
func (s Section) String() string {
	switch s {
	case SectionDeckA:
		return "deck-a"
	case SectionDeckB:
		return "deck-b"
	case SectionDeckC:
		return "deck-c"
	case SectionDeckD:
		return "deck-d"
	case SectionMaster:
		return "master"
	case SectionControl:
		return "control"
	default:
		return "unknown"
	}
}

// DeckSection returns the section constant for deck index d (0..3).
func DeckSection(d int) Section {
	return Section(int(SectionDeckA) + d%4)
}

// NodeKind classifies a node for the engine's graceful-degradation
// ladder: under deadline pressure the governor sheds KindMeter and
// KindControl nodes first (invisible to the audio path), then bypasses
// KindFX nodes (audible but intact), and never sheds KindAudio nodes.
type NodeKind int

const (
	// KindAudio nodes are load-bearing for the signal path (SP sources,
	// channels, mixer, output); they are never shed.
	KindAudio NodeKind = iota
	// KindFX nodes are effect units with a safe pass-through bypass.
	KindFX
	// KindMeter nodes compute UI-only metering (VU, spectrum, loudness).
	KindMeter
	// KindControl nodes are short UI/sync computations (beat grids etc.).
	KindControl
)

// MaxShedRung is the deepest rung of the degradation ladder ShedAt
// knows: rung 1 sheds meter and control nodes, rung 2 also bypasses FX.
const MaxShedRung = 2

// ShedAt reports whether a node of kind k is shed at ladder rung r — the
// one kind→rung rule behind the governor's levels and the admission
// ladder's degraded cost models. Audio nodes are never shed.
func (k NodeKind) ShedAt(r int) bool {
	switch k {
	case KindMeter, KindControl:
		return r >= 1
	case KindFX:
		return r >= 2
	}
	return false
}

// String returns the kind label.
func (k NodeKind) String() string {
	switch k {
	case KindAudio:
		return "audio"
	case KindFX:
		return "fx"
	case KindMeter:
		return "meter"
	case KindControl:
		return "control"
	default:
		return "unknown"
	}
}

// Node is one vertex of the task graph.
type Node struct {
	// ID is the node's index in the graph, assigned by AddNode.
	ID int
	// Name is a short label ("SPA1", "FXB2", "Mixer").
	Name string
	// Section locates the node in the mixer topology.
	Section Section
	// Kind classifies the node for load shedding (KindAudio by default).
	Kind NodeKind
	// Cost is the node's design cost (DESIGN.md §4): the target its
	// calibrated load tops the kernel up to. Zero for nodes without one.
	Cost Cost
	// Run executes the node's computation. It must be safe to call from
	// any worker thread; mutual exclusion between nodes sharing buffers is
	// provided by the dependency edges.
	Run func()
	// Bypass, when non-nil, is the cheap stand-in the scheduler runs
	// instead of Run while the node is quarantined or shed (e.g. gather
	// the dry mix without the effect). A nil Bypass means the node is
	// simply skipped — correct for in-place processors, whose input
	// buffer then passes through untouched.
	Bypass func()
	// Flush, when non-nil, silences the node's output buffer after Run
	// panicked mid-write, so a half-written packet is never audible.
	Flush func()
	// State is the node's migratable state handle (filter memories, delay
	// lines, meter accumulators). The graph never touches it; it exists so
	// a live edit (Graph.Apply) can hand it to a successor node's Migrate
	// hook when the topology is swapped under a running engine.
	State any
	// Migrate, when non-nil, is invoked once when a plan containing this
	// node is adopted by a live engine, with the State of the node it
	// descends from in the previous epoch (nil for a brand-new node). It
	// runs on the cycle thread between two cycles, so it may touch audio
	// state freely.
	Migrate func(prev any)

	deps  []int
	succs []int
}

// Succs returns the IDs of the node's successors (do not modify).
func (n *Node) Succs() []int { return n.succs }

// Graph is a mutable task-graph builder. Build the graph with AddNode and
// AddEdge, then Compile it into an immutable Plan for execution.
type Graph struct {
	nodes []*Node
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// Node returns the node with the given ID.
func (g *Graph) Node(id int) *Node { return g.nodes[id] }

// Nodes returns all nodes in ID order (do not modify the slice).
func (g *Graph) Nodes() []*Node { return g.nodes }

// AddNode appends a node and returns its ID. A nil run function is
// replaced with a no-op so structural tests can build shape-only graphs.
func (g *Graph) AddNode(name string, section Section, run func()) int {
	if run == nil {
		run = func() {}
	}
	n := &Node{ID: len(g.nodes), Name: name, Section: section, Run: run}
	g.nodes = append(g.nodes, n)
	return n.ID
}

// AddEdge adds a dependency: to cannot run before from has finished.
// Duplicate edges are ignored.
func (g *Graph) AddEdge(from, to int) error {
	if from < 0 || from >= len(g.nodes) || to < 0 || to >= len(g.nodes) {
		return fmt.Errorf("graph: edge %d->%d out of range [0,%d)", from, to, len(g.nodes))
	}
	if from == to {
		return fmt.Errorf("graph: self-edge on node %d (%s)", from, g.nodes[from].Name)
	}
	for _, d := range g.nodes[to].deps {
		if d == from {
			return nil
		}
	}
	g.nodes[to].deps = append(g.nodes[to].deps, from)
	g.nodes[from].succs = append(g.nodes[from].succs, to)
	return nil
}

// ErrCycle is returned by Compile when the graph is not acyclic.
var ErrCycle = errors.New("graph: dependency cycle")

// Plan is the immutable, execution-ready form of a graph. All index slices
// use int32 to keep the scheduler's hot data compact.
type Plan struct {
	// Names and Sections are per-node metadata (indexed by node ID).
	Names    []string
	Sections []Section
	// Kinds classifies each node for the degradation ladder.
	Kinds []NodeKind
	// Run holds each node's work function.
	Run []func()
	// Bypass holds each node's quarantine/shed stand-in (nil = skip).
	Bypass []func()
	// Flush holds each node's output-silencing hook (nil = nothing to
	// silence), run after a recovered node panic.
	Flush []func()
	// States holds each node's migratable state handle (nil = stateless);
	// Migrate the per-node adoption hooks. Both are consulted only when a
	// live edit swaps this plan in under a running engine (see Node.State
	// and Node.Migrate).
	States  []any
	Migrate []func(prev any)
	// Order is the queue insertion order: ascending depth, ties broken by
	// node ID ("column by column and from left to right", paper §IV).
	Order []int32
	// Dependency adjacency in CSR (compressed sparse row) form: the
	// predecessors of node i are PredList[PredIdx[i]:PredIdx[i+1]], its
	// successors SuccList[SuccIdx[i]:SuccIdx[i+1]]. One flat array per
	// direction keeps the per-cycle release walk on contiguous cache
	// lines instead of chasing one heap slice per node. Use PredsOf /
	// SuccsOf; do not modify.
	PredIdx, PredList []int32
	SuccIdx, SuccList []int32
	// Indegree is the predecessor count per node, precomputed for the
	// schedulers' pending-counter reset.
	Indegree []int32
	// Depth is the longest path (in edges) from any source to the node.
	Depth []int32
	// Rank is the HEFT-style upward rank: the node's cost plus the most
	// expensive downstream path to a sink. Compile fills it with unit
	// costs (rank = longest hop count below, a pure structure metric);
	// Fuse recomputes it from real per-node cost estimates.
	Rank []float64
	// RankOrder lists all node IDs by descending Rank, ties broken by
	// Order position. Because every edge u→v implies Rank(u) > Rank(v)
	// for positive costs, RankOrder is itself a valid topological order —
	// the schedulers use it so critical-path nodes are claimed first.
	RankOrder []int32
	// SourceIDs lists all dependency-free nodes in ID order, precomputed
	// so Sources() on the per-cycle path never allocates.
	SourceIDs []int32
	// SourcesBySection lists dependency-free nodes grouped by section, in
	// ID order; used by work stealing's locality-aware initial fill.
	SourcesBySection map[Section][]int32
	// CriticalPathLen is the number of nodes on the longest path.
	CriticalPathLen int

	// Costs holds each node's design cost (Node.Cost), the plan's static
	// work model. It is last so the fields the schedulers read every
	// cycle keep their cache-line placement.
	Costs []Cost
}

// Len returns the number of nodes in the plan.
func (p *Plan) Len() int { return len(p.Run) }

// PredsOf returns the predecessor IDs of node id (do not modify).
func (p *Plan) PredsOf(id int32) []int32 {
	return p.PredList[p.PredIdx[id]:p.PredIdx[id+1]]
}

// SuccsOf returns the successor IDs of node id (do not modify).
func (p *Plan) SuccsOf(id int32) []int32 {
	return p.SuccList[p.SuccIdx[id]:p.SuccIdx[id+1]]
}

// PredLists materializes the per-node predecessor lists (always non-nil,
// so they serialize as [] rather than null). It allocates; it exists for
// serialization (incident bundles), not for analysis or the cycle path.
func (p *Plan) PredLists() [][]int32 {
	out := make([][]int32, p.Len())
	for i := range out {
		out[i] = append([]int32{}, p.PredsOf(int32(i))...)
	}
	return out
}

// Sources returns all dependency-free node IDs in ID order. The slice is
// precomputed at compile time (do not modify).
func (p *Plan) Sources() []int32 { return p.SourceIDs }

// Compile validates the graph (non-empty, acyclic) and produces a Plan.
func (g *Graph) Compile() (*Plan, error) {
	n := len(g.nodes)
	if n == 0 {
		return nil, errors.New("graph: empty graph")
	}

	// Kahn's algorithm: topological order + cycle detection.
	indeg := make([]int32, n)
	for _, node := range g.nodes {
		indeg[node.ID] = int32(len(node.deps))
	}
	queue := make([]int, 0, n)
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	depth := make([]int32, n)
	seen := 0
	work := append([]int32(nil), indeg...)
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		seen++
		for _, s := range g.nodes[id].succs {
			if d := depth[id] + 1; d > depth[s] {
				depth[s] = d
			}
			work[s]--
			if work[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if seen != n {
		return nil, fmt.Errorf("%w: %d of %d nodes reachable in topological order", ErrCycle, seen, n)
	}

	// Queue order: by depth, then ID.
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		if depth[order[a]] != depth[order[b]] {
			return depth[order[a]] < depth[order[b]]
		}
		return order[a] < order[b]
	})

	p := &Plan{
		Names:            make([]string, n),
		Sections:         make([]Section, n),
		Kinds:            make([]NodeKind, n),
		Costs:            make([]Cost, n),
		Run:              make([]func(), n),
		Bypass:           make([]func(), n),
		Flush:            make([]func(), n),
		States:           make([]any, n),
		Migrate:          make([]func(prev any), n),
		Order:            order,
		Indegree:         indeg,
		Depth:            depth,
		SourcesBySection: make(map[Section][]int32),
	}
	maxDepth := int32(0)
	edges := 0
	for _, node := range g.nodes {
		i := node.ID
		p.Names[i] = node.Name
		p.Sections[i] = node.Section
		p.Kinds[i] = node.Kind
		p.Costs[i] = node.Cost
		p.Run[i] = node.Run
		p.Bypass[i] = node.Bypass
		p.Flush[i] = node.Flush
		p.States[i] = node.State
		p.Migrate[i] = node.Migrate
		edges += len(node.deps)
		if depth[i] > maxDepth {
			maxDepth = depth[i]
		}
		if len(node.deps) == 0 {
			p.SourceIDs = append(p.SourceIDs, int32(i))
			p.SourcesBySection[node.Section] = append(p.SourcesBySection[node.Section], int32(i))
		}
	}
	p.CriticalPathLen = int(maxDepth) + 1

	// CSR adjacency: one offset array plus one flat ID array per
	// direction, so the scheduler's dependency walks touch contiguous
	// memory.
	p.PredIdx = make([]int32, n+1)
	p.SuccIdx = make([]int32, n+1)
	p.PredList = make([]int32, 0, edges)
	p.SuccList = make([]int32, 0, edges)
	for _, node := range g.nodes {
		p.PredList = append(p.PredList, toInt32(node.deps)...)
		p.PredIdx[node.ID+1] = int32(len(p.PredList))
		p.SuccList = append(p.SuccList, toInt32(node.succs)...)
		p.SuccIdx[node.ID+1] = int32(len(p.SuccList))
	}

	p.computeRanks(nil)
	return p, nil
}

// The plan's work model is decided here, once: every cost-weighted
// longest path in the repository — ranks, fusion's cap, the simulator's
// critical path, list priorities and static-executor schedules, the
// observed critical path, the admission bound — is one of the sweeps
// below over a per-node µs cost slice (nil = unit costs).

// UpwardRank is the backward sweep: the HEFT upward rank on a single
// machine class, the longest cost path from each node (inclusive) to a
// sink,
//
//	rank(i) = cost(i) + max over successors s of rank(s)
func (p *Plan) UpwardRank(costUS []float64) []float64 {
	rank := make([]float64, p.Len())
	// Order is topological, so a reverse sweep sees all successors first.
	for i := len(p.Order) - 1; i >= 0; i-- {
		id := p.Order[i]
		best := 0.0
		for _, s := range p.SuccsOf(id) {
			if rank[s] > best {
				best = rank[s]
			}
		}
		rank[id] = costAt(costUS, id) + best
	}
	return rank
}

// EarliestFinish is the forward sweep: with unbounded processors every
// node starts the moment its last predecessor finishes, so
// finish[i] = cost(i) + max over predecessors of finish. via[i] is the
// predecessor that set the start (the first in PredsOf order to reach
// it; -1 for a node that starts at 0).
func (p *Plan) EarliestFinish(costUS []float64) (finish []float64, via []int32) {
	finish = make([]float64, p.Len())
	via = make([]int32, p.Len())
	for _, id := range p.Order {
		via[id] = -1
		start := 0.0
		for _, pr := range p.PredsOf(id) {
			if finish[pr] > start {
				start = finish[pr]
				via[id] = pr
			}
		}
		finish[id] = start + costAt(costUS, id)
	}
	return finish, via
}

// RoundRobinLists is the static executors' assignment: worker w of T
// runs RankOrder[w], RankOrder[w+T], ..., so critical-path nodes are
// dealt first. Each list is a subsequence of the topological RankOrder,
// so a dependency wait only waits on an earlier node, and the lists'
// round-robin interleave is RankOrder again, which ListFinish sweeps.
func (p *Plan) RoundRobinLists(threads int) [][]int32 {
	lists := make([][]int32, threads)
	for i, id := range p.RankOrder {
		lists[i%threads] = append(lists[i%threads], id)
	}
	return lists
}

// ListFinish is the thread-chain sweep. Worker w runs lists[w] in order
// and spends checkUS on each node; a node whose predecessor is still
// running waits for it, then pays wakeUS (0 for a spinner):
//
//	finish(v) = max(finish(prev on thread) + check,
//	                max over preds finish(p) [+ wake if it stalled]) + cost(v)
//
// Position k of every list is visited before position k+1; that order
// must be topological, as it is for RoundRobinLists. start and finish
// (length Len()) receive each node's window, so the sweep allocates
// nothing. It returns the makespan and the total stall time, or an
// error if the lists do not hold every node once in a sweepable order.
func (p *Plan) ListFinish(lists [][]int32, costUS []float64, checkUS, wakeUS float64, start, finish []float64) (makespan, waitUS float64, err error) {
	for i := range finish {
		finish[i] = -1 // not yet run
	}
	for k, more := 0, true; more; k++ {
		more = false
		for _, l := range lists {
			if k >= len(l) {
				continue
			}
			more = true
			id, st := l[k], checkUS
			if finish[id] >= 0 {
				return 0, 0, fmt.Errorf("graph: node %d listed twice", id)
			}
			if k > 0 {
				st += finish[l[k-1]]
			}
			ready := 0.0
			for _, pr := range p.PredsOf(id) {
				if finish[pr] < 0 {
					return 0, 0, fmt.Errorf("graph: node %d listed before its predecessor %d", id, pr)
				}
				ready = max(ready, finish[pr])
			}
			if ready > st {
				waitUS += ready - st
				st = ready + wakeUS
			}
			start[id], finish[id] = st, st+costAt(costUS, id)
			makespan = max(makespan, finish[id])
		}
	}
	if i := slices.Index(finish, -1); i >= 0 {
		return 0, 0, fmt.Errorf("graph: node %d is on no list", i)
	}
	return makespan, waitUS, nil
}

// CriticalPath returns the longest cost path in execution order and its
// length, the infinite-processor makespan. Among equally long paths it
// ends at the sink earliest in Order.
func (p *Plan) CriticalPath(costUS []float64) (path []int32, lengthUS float64) {
	finish, via := p.EarliestFinish(costUS)
	last := int32(-1)
	for _, id := range p.Order {
		if last < 0 || finish[id] > finish[last] {
			last = id
		}
	}
	if last < 0 {
		return nil, 0
	}
	for at := last; at >= 0; at = via[at] {
		path = append(path, at)
	}
	slices.Reverse(path)
	return path, finish[last]
}

// MakespanLowerBound is the resource-constrained lower bound on any
// schedule of workUS total work with critical path cpUS on procs
// processors: max(cp, work/procs).
func MakespanLowerBound(workUS, cpUS float64, procs int) float64 {
	return max(cpUS, workUS/float64(max(procs, 1)))
}

func costAt(costUS []float64, id int32) float64 {
	if costUS == nil {
		return 1
	}
	return costUS[id]
}

// computeRanks fills Rank (UpwardRank) and RankOrder from per-node costs
// in µs (nil = unit costs) and sorts each node's successor segment by
// descending rank so the release walk wakes the most critical successor
// first. Every edge u→v gives Rank(u) ≥ Rank(v) + cost(u) > Rank(v) when
// costs are positive, so descending rank is a topological order and the
// list-based schedulers can substitute RankOrder for Order without
// touching their deadlock-freedom argument.
func (p *Plan) computeRanks(costUS []float64) {
	n := p.Len()
	p.Rank = p.UpwardRank(costUS)

	posOf := make([]int32, n)
	for pos, id := range p.Order {
		posOf[id] = int32(pos)
	}
	p.RankOrder = make([]int32, n)
	for i := range p.RankOrder {
		p.RankOrder[i] = int32(i)
	}
	sort.SliceStable(p.RankOrder, func(a, b int) bool {
		x, y := p.RankOrder[a], p.RankOrder[b]
		if p.Rank[x] != p.Rank[y] {
			return p.Rank[x] > p.Rank[y]
		}
		return posOf[x] < posOf[y]
	})
	for id := int32(0); id < int32(n); id++ {
		seg := p.SuccList[p.SuccIdx[id]:p.SuccIdx[id+1]]
		sort.SliceStable(seg, func(a, b int) bool {
			return p.Rank[seg[a]] > p.Rank[seg[b]]
		})
	}
}

// PlanFromLists rebuilds a structural Plan (names, order, CSR adjacency,
// no-op run functions) from per-node predecessor lists — the shape a
// flight-recorder bundle serializes. The result supports the offline
// analyses (Validate, critical path) but is not executable.
func PlanFromLists(names []string, order []int32, preds [][]int32) *Plan {
	n := len(names)
	p := &Plan{
		Names:    append([]string(nil), names...),
		Sections: make([]Section, n),
		Kinds:    make([]NodeKind, n),
		Costs:    make([]Cost, n),
		Run:      make([]func(), n),
		Bypass:   make([]func(), n),
		Flush:    make([]func(), n),
		States:   make([]any, n),
		Migrate:  make([]func(prev any), n),
		Order:    append([]int32(nil), order...),
		Indegree: make([]int32, n),
		Depth:    make([]int32, n),
	}
	for i := range p.Run {
		p.Run[i] = func() {}
	}
	succs := make([][]int32, n)
	p.PredIdx = make([]int32, n+1)
	p.SuccIdx = make([]int32, n+1)
	for i := 0; i < n; i++ {
		p.PredList = append(p.PredList, preds[i]...)
		p.PredIdx[i+1] = int32(len(p.PredList))
		p.Indegree[i] = int32(len(preds[i]))
		for _, d := range preds[i] {
			succs[d] = append(succs[d], int32(i))
		}
		if len(preds[i]) == 0 {
			p.SourceIDs = append(p.SourceIDs, int32(i))
		}
	}
	for i := 0; i < n; i++ {
		p.SuccList = append(p.SuccList, succs[i]...)
		p.SuccIdx[i+1] = int32(len(p.SuccList))
	}
	p.computeRanks(nil)
	return p
}

func toInt32(xs []int) []int32 {
	out := make([]int32, len(xs))
	for i, x := range xs {
		out[i] = int32(x)
	}
	return out
}
