package graph

import (
	"errors"
	"fmt"
)

// Live topology editing (ROADMAP item 5): plans become versioned values.
// An EditSet is a batch of structural edits against a built Graph;
// Graph.Apply materializes it into a NEW graph and compiled Plan plus a
// Remap that relates the two node-ID spaces, so a running engine can
// swap the plan in at a cycle boundary while surviving nodes keep their
// identity (quarantine bits, shed state, observer history) and their
// audio state (the Run closures are carried over verbatim; see also
// Node.State / Node.Migrate for state that must cross node boundaries,
// e.g. a ReplaceChain that hands a delay line to its successor).
//
// Apply never mutates the receiver: a failed edit leaves the live graph
// untouched, which is what makes staging + rollback on the engine safe.

// ErrBadEdit wraps every EditSet validation failure (dangling refs,
// duplicate removes/edges, missing edges, broken chains). Cycles are
// reported as ErrCycle by the embedded Compile.
var ErrBadEdit = errors.New("graph: invalid edit")

// NodeRef names a node inside an EditSet: a value >= 0 is an existing
// node ID of the graph the set will be applied to; negative values are
// returned by EditSet.AddNode / ReplaceChain and name nodes the same
// set is adding.
type NodeRef int

// NodeSpec describes a node an EditSet adds. Zero-value Kind is
// KindAudio; a nil Run becomes a no-op (like Graph.AddNode). Added nodes
// have no spin target, so their design cost (Node.Cost) is zero, and no
// bypass: a shed or quarantined one is skipped.
type NodeSpec struct {
	Name    string
	Section Section
	Kind    NodeKind
	Run     func()
	Flush   func()
	// State and Migrate seed the new node's migratable state (see Node).
	State   any
	Migrate func(prev any)
}

// Edit op kinds.
type editKind int

const (
	opAddNode editKind = iota
	opRemoveNode
	opAddEdge
	opRemoveEdge
	opReplaceChain
)

// editOp is one recorded edit.
type editOp struct {
	kind  editKind
	a, b  NodeRef // node target / edge endpoints
	spec  NodeSpec
	chain []NodeRef
	specs []NodeSpec
}

// EditSet is an ordered batch of topology edits. Build it with the
// methods below, then apply it with Graph.Apply. The zero value is an
// empty set. An EditSet is single-use: applying it to a graph other
// than the one its refs were chosen against yields an error or
// nonsense, and it must not be applied twice.
type EditSet struct {
	ops  []editOp
	adds int
}

// Len returns the number of recorded edit operations.
func (es *EditSet) Len() int { return len(es.ops) }

// AddNode records the addition of a node and returns its ref for use in
// subsequent AddEdge/RemoveNode calls of the same set.
func (es *EditSet) AddNode(spec NodeSpec) NodeRef {
	es.ops = append(es.ops, editOp{kind: opAddNode, spec: spec})
	es.adds++
	return NodeRef(-es.adds)
}

// RemoveNode records the removal of a node. All incident edges are
// detached with it; removing the same node twice is an error at Apply.
func (es *EditSet) RemoveNode(n NodeRef) {
	es.ops = append(es.ops, editOp{kind: opRemoveNode, a: n})
}

// AddEdge records a new dependency edge from -> to. Adding an edge that
// already exists (or twice in one set) is an error at Apply.
func (es *EditSet) AddEdge(from, to NodeRef) {
	es.ops = append(es.ops, editOp{kind: opAddEdge, a: from, b: to})
}

// RemoveEdge records the removal of the edge from -> to, which must
// exist at the point the op applies.
func (es *EditSet) RemoveEdge(from, to NodeRef) {
	es.ops = append(es.ops, editOp{kind: opRemoveEdge, a: from, b: to})
}

// ReplaceChain swaps a linear chain of nodes for a freshly specced one:
// the chain's external predecessors feed the first new node, the last
// new node feeds the chain's external successors. The chain entries
// must be connected head-to-tail and its interior nodes must have no
// other edges. With no specs the chain is simply excised and its
// neighbors bridged (every external predecessor of the head gains an
// edge to every external successor of the tail).
//
// State pairing: new node i inherits chain[i]'s State (for i within
// both lists) — its Migrate hook, if any, receives that state at
// adoption time. The refs of the new nodes are returned.
func (es *EditSet) ReplaceChain(chain []NodeRef, specs ...NodeSpec) []NodeRef {
	op := editOp{
		kind:  opReplaceChain,
		chain: append([]NodeRef(nil), chain...),
		specs: append([]NodeSpec(nil), specs...),
	}
	es.ops = append(es.ops, op)
	refs := make([]NodeRef, len(specs))
	for i := range specs {
		es.adds++
		refs[i] = NodeRef(-es.adds)
	}
	return refs
}

// Remap relates the node-ID spaces of two plan epochs.
type Remap struct {
	// OldToNew[oldID] is the node's ID in the new plan, or -1 if the
	// edit removed it.
	OldToNew []int32
	// NewToOld[newID] is the node's ID in the old plan, or -1 if the
	// edit added it.
	NewToOld []int32
	// StateSrc[newID] is the old node whose State the new node inherits
	// (its Migrate hook's argument), or -1 for none. For surviving nodes
	// this equals NewToOld; ReplaceChain pairs new specs with the chain
	// nodes they replace.
	StateSrc []int32
}

// Compose chains two remaps: r maps epoch A->B, next maps B->C; the
// result maps A->C. Used when several EditSets are staged before one
// cycle boundary adopts them all.
func (r *Remap) Compose(next *Remap) *Remap {
	out := &Remap{
		OldToNew: make([]int32, len(r.OldToNew)),
		NewToOld: make([]int32, len(next.NewToOld)),
		StateSrc: make([]int32, len(next.NewToOld)),
	}
	for a, b := range r.OldToNew {
		if b < 0 {
			out.OldToNew[a] = -1
		} else {
			out.OldToNew[a] = next.OldToNew[b]
		}
	}
	for c, b := range next.NewToOld {
		if b < 0 {
			out.NewToOld[c] = -1
		} else {
			out.NewToOld[c] = r.NewToOld[b]
		}
	}
	for c, b := range next.StateSrc {
		if b < 0 {
			out.StateSrc[c] = -1
		} else {
			out.StateSrc[c] = r.StateSrc[b]
		}
	}
	return out
}

// editState is the working set of one Apply: a mutable copy of the
// graph's adjacency with tombstones for removals.
type editState struct {
	origN int
	nodes []*Node // shallow clones; index = working ID
	// removed marks tombstoned working IDs.
	removed []bool
	// addedFrom[i] is, for working IDs >= origN, the old node whose
	// State the added node inherits (-1 = none).
	addedFrom []int32
}

// Apply materializes the edit set against g: it validates every op,
// produces a new compacted Graph, compiles it, and returns the compiled
// Plan together with the Remap between g's IDs and the new plan's. g is
// never mutated; on any error the returned values are nil and the live
// topology is untouched.
func (g *Graph) Apply(es *EditSet) (*Graph, *Plan, *Remap, error) {
	st := &editState{origN: len(g.nodes)}
	st.nodes = make([]*Node, len(g.nodes))
	for i, n := range g.nodes {
		c := *n // shallow copy; Run/Bypass/Flush/State are shared handles
		c.deps = append([]int(nil), n.deps...)
		c.succs = append([]int(nil), n.succs...)
		st.nodes[i] = &c
	}
	st.removed = make([]bool, len(g.nodes))

	for i := range es.ops {
		if err := st.apply(&es.ops[i]); err != nil {
			return nil, nil, nil, fmt.Errorf("%w: op %d: %v", ErrBadEdit, i, err)
		}
	}
	return st.compact()
}

// resolve turns a NodeRef into a working ID.
func (st *editState) resolve(r NodeRef) (int, error) {
	var id int
	if r >= 0 {
		id = int(r)
		if id >= st.origN {
			return 0, fmt.Errorf("node ref %d out of range [0,%d)", id, st.origN)
		}
	} else {
		idx := -int(r) - 1
		if idx >= len(st.addedFrom) {
			return 0, fmt.Errorf("added-node ref %d not defined yet", r)
		}
		id = st.origN + idx
	}
	if st.removed[id] {
		return 0, fmt.Errorf("node %d (%s) was removed earlier in this edit", id, st.nodes[id].Name)
	}
	return id, nil
}

// addNode appends a working node from a spec.
func (st *editState) addNode(spec NodeSpec, from int32) int {
	run := spec.Run
	if run == nil {
		run = func() {}
	}
	n := &Node{
		ID:      len(st.nodes),
		Name:    spec.Name,
		Section: spec.Section,
		Kind:    spec.Kind,
		Run:     run,
		Flush:   spec.Flush,
		State:   spec.State,
		Migrate: spec.Migrate,
	}
	st.nodes = append(st.nodes, n)
	st.removed = append(st.removed, false)
	st.addedFrom = append(st.addedFrom, from)
	return n.ID
}

// hasEdge reports whether from -> to exists in the working graph.
func (st *editState) hasEdge(from, to int) bool {
	for _, d := range st.nodes[to].deps {
		if d == from {
			return true
		}
	}
	return false
}

// addEdge inserts from -> to, rejecting self-edges and duplicates.
func (st *editState) addEdge(from, to int) error {
	if from == to {
		return fmt.Errorf("self-edge on node %d (%s)", from, st.nodes[from].Name)
	}
	if st.hasEdge(from, to) {
		return fmt.Errorf("duplicate edge %s -> %s", st.nodes[from].Name, st.nodes[to].Name)
	}
	st.nodes[to].deps = append(st.nodes[to].deps, from)
	st.nodes[from].succs = append(st.nodes[from].succs, to)
	return nil
}

// removeEdge deletes from -> to, which must exist.
func (st *editState) removeEdge(from, to int) error {
	if !st.hasEdge(from, to) {
		return fmt.Errorf("edge %s -> %s does not exist", st.nodes[from].Name, st.nodes[to].Name)
	}
	st.nodes[to].deps = cutInt(st.nodes[to].deps, from)
	st.nodes[from].succs = cutInt(st.nodes[from].succs, to)
	return nil
}

// removeNode tombstones a node and detaches its incident edges.
func (st *editState) removeNode(id int) {
	n := st.nodes[id]
	for _, d := range n.deps {
		st.nodes[d].succs = cutInt(st.nodes[d].succs, id)
	}
	for _, s := range n.succs {
		st.nodes[s].deps = cutInt(st.nodes[s].deps, id)
	}
	n.deps, n.succs = nil, nil
	st.removed[id] = true
}

func (st *editState) apply(op *editOp) error {
	switch op.kind {
	case opAddNode:
		if op.spec.Name == "" {
			return errors.New("added node needs a name")
		}
		st.addNode(op.spec, -1)
		return nil
	case opRemoveNode:
		id, err := st.resolve(op.a)
		if err != nil {
			return err
		}
		st.removeNode(id)
		return nil
	case opAddEdge:
		from, err := st.resolve(op.a)
		if err != nil {
			return err
		}
		to, err := st.resolve(op.b)
		if err != nil {
			return err
		}
		return st.addEdge(from, to)
	case opRemoveEdge:
		from, err := st.resolve(op.a)
		if err != nil {
			return err
		}
		to, err := st.resolve(op.b)
		if err != nil {
			return err
		}
		return st.removeEdge(from, to)
	case opReplaceChain:
		return st.replaceChain(op)
	default:
		return fmt.Errorf("unknown op kind %d", op.kind)
	}
}

// replaceChain validates and applies a chain replacement.
func (st *editState) replaceChain(op *editOp) error {
	if len(op.chain) == 0 {
		return errors.New("empty chain")
	}
	ids := make([]int, len(op.chain))
	inChain := make(map[int]bool, len(op.chain))
	for i, r := range op.chain {
		id, err := st.resolve(r)
		if err != nil {
			return err
		}
		if inChain[id] {
			return fmt.Errorf("node %s listed twice in chain", st.nodes[id].Name)
		}
		ids[i] = id
		inChain[id] = true
	}
	for i := 0; i+1 < len(ids); i++ {
		if !st.hasEdge(ids[i], ids[i+1]) {
			return fmt.Errorf("chain break: no edge %s -> %s",
				st.nodes[ids[i]].Name, st.nodes[ids[i+1]].Name)
		}
	}
	// Interior nodes must be pure chain links.
	for i := 1; i+1 < len(ids); i++ {
		n := st.nodes[ids[i]]
		if len(n.deps) != 1 || len(n.succs) != 1 {
			return fmt.Errorf("chain interior node %s has external edges", n.Name)
		}
	}
	head, tail := ids[0], ids[len(ids)-1]
	var preds, succs []int
	for _, d := range st.nodes[head].deps {
		if !inChain[d] {
			preds = append(preds, d)
		}
	}
	for _, s := range st.nodes[tail].succs {
		if !inChain[s] {
			succs = append(succs, s)
		}
	}
	// With one chain node, head == tail: it may have both external preds
	// and succs; verify no OTHER external edges dangle off interior ends.
	if len(ids) > 1 {
		for _, s := range st.nodes[head].succs {
			if !inChain[s] {
				return fmt.Errorf("chain head %s has an external successor %s",
					st.nodes[head].Name, st.nodes[s].Name)
			}
		}
		for _, d := range st.nodes[tail].deps {
			if !inChain[d] {
				return fmt.Errorf("chain tail %s has an external predecessor %s",
					st.nodes[tail].Name, st.nodes[d].Name)
			}
		}
	}
	for _, id := range ids {
		st.removeNode(id)
	}
	if len(op.specs) == 0 {
		// Pure excision: bridge the neighbors (skip edges that already
		// exist — e.g. a parallel path around the chain).
		for _, p := range preds {
			for _, s := range succs {
				if p != s && !st.hasEdge(p, s) {
					if err := st.addEdge(p, s); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
	newIDs := make([]int, len(op.specs))
	for i, spec := range op.specs {
		if spec.Name == "" {
			return errors.New("replacement node needs a name")
		}
		from := int32(-1)
		if i < len(ids) {
			from = int32(ids[i])
		}
		newIDs[i] = st.addNode(spec, from)
		if i > 0 {
			if err := st.addEdge(newIDs[i-1], newIDs[i]); err != nil {
				return err
			}
		}
	}
	for _, p := range preds {
		if err := st.addEdge(p, newIDs[0]); err != nil {
			return err
		}
	}
	for _, s := range succs {
		if err := st.addEdge(newIDs[len(newIDs)-1], s); err != nil {
			return err
		}
	}
	return nil
}

// compact builds the new graph from the working set (survivors keep
// relative order, added nodes follow) and compiles it.
func (st *editState) compact() (*Graph, *Plan, *Remap, error) {
	workToNew := make([]int32, len(st.nodes))
	out := New()
	for id, n := range st.nodes {
		if st.removed[id] {
			workToNew[id] = -1
			continue
		}
		newID := out.AddNode(n.Name, n.Section, n.Run)
		nn := out.Node(newID)
		nn.Kind = n.Kind
		nn.Cost = n.Cost
		nn.Bypass = n.Bypass
		nn.Flush = n.Flush
		nn.State = n.State
		nn.Migrate = n.Migrate
		workToNew[id] = int32(newID)
	}
	for id, n := range st.nodes {
		if st.removed[id] {
			continue
		}
		for _, s := range n.succs {
			if err := out.AddEdge(int(workToNew[id]), int(workToNew[s])); err != nil {
				return nil, nil, nil, fmt.Errorf("%w: %v", ErrBadEdit, err)
			}
		}
	}
	plan, err := out.Compile()
	if err != nil {
		return nil, nil, nil, err // ErrCycle or empty graph
	}
	r := &Remap{
		OldToNew: workToNew[:st.origN:st.origN],
		NewToOld: make([]int32, out.Len()),
		StateSrc: make([]int32, out.Len()),
	}
	for i := range r.NewToOld {
		r.NewToOld[i] = -1
		r.StateSrc[i] = -1
	}
	for old := 0; old < st.origN; old++ {
		if n := r.OldToNew[old]; n >= 0 {
			r.NewToOld[n] = int32(old)
			r.StateSrc[n] = int32(old)
		}
	}
	for idx, from := range st.addedFrom {
		if from < 0 || from >= int32(st.origN) {
			continue
		}
		work := st.origN + idx
		if n := workToNew[work]; n >= 0 {
			r.StateSrc[n] = from
		}
	}
	return out, plan, r, nil
}

// cutInt removes the first occurrence of v from xs.
func cutInt(xs []int, v int) []int {
	for i, x := range xs {
		if x == v {
			return append(xs[:i:i], xs[i+1:]...)
		}
	}
	return xs
}
