package graph

import (
	"errors"
	"fmt"
	"strings"
)

// FuseOptions tunes the chain-fusion pass.
type FuseOptions struct {
	// MaxCostUS caps the summed estimated cost of one fused unit. Fusing
	// a linear chain can never lengthen the critical path (the members
	// were already sequential), but an over-large unit becomes an
	// indivisible lump the schedulers cannot balance across workers, so
	// the cap bounds granularity. 0 means automatic: a quarter of the
	// cost-weighted critical path, but never below twice the most
	// expensive single node (so uniform-cost chains still fuse in pairs).
	MaxCostUS float64
}

// fuseMaxLen caps the number of members per fused unit.
const fuseMaxLen = 8

// Fuse compiles a lower-overhead execution plan from p by collapsing
// single-pred/single-succ chains of same-kind nodes into fused units. A
// chain carries no scheduling decision — its interior nodes have exactly
// one producer and one consumer — yet the unfused plan still pays one
// dependency-release handshake (atomic decrement, done-flag publish,
// possibly a deque push or wakeup) per hop. A fused unit is claimed once
// and runs its members back-to-back on one worker.
//
// costUS supplies per-node cost estimates in µs (an engine's measured
// collector means or a static design table); nil means unit
// costs, which fuses purely by shape. The returned plan carries the
// original as Base and per-unit member lists in Members; the scheduler
// executes, times and fault-isolates each member individually under its
// base ID, so observability and quarantine semantics are unchanged.
//
// Fusing an already-fused plan is an error — re-fuse from the Base plan.
func Fuse(p *Plan, costUS []float64, o FuseOptions) (*Plan, error) {
	if p == nil || p.Len() == 0 {
		return nil, errors.New("graph: fuse of empty plan")
	}
	if p.IsFused() {
		return nil, errors.New("graph: plan is already fused (fuse the Base plan)")
	}
	n := p.Len()
	if costUS != nil && len(costUS) != n {
		return nil, fmt.Errorf("graph: fuse cost table has %d entries for %d nodes", len(costUS), n)
	}
	cost := func(id int32) float64 { return costAt(costUS, id) }

	maxCost := o.MaxCostUS
	if maxCost <= 0 {
		// Cost-weighted critical path (the largest upward rank) and the
		// most expensive single node.
		cpUS, maxNode := 0.0, 0.0
		for id, d := range p.UpwardRank(costUS) {
			cpUS = max(cpUS, d)
			maxNode = max(maxNode, cost(int32(id)))
		}
		maxCost = cpUS / 4
		if floor := 2 * maxNode; maxCost < floor {
			maxCost = floor
		}
	}

	// Greedy chain extraction in queue order: each unassigned node heads
	// a unit, then the unit swallows its successor while the link is a
	// pure chain hop (single succ, single pred, same kind) and the caps
	// allow. Heads are visited topologically, so a swallowed node is
	// always claimed before its own Order slot comes up.
	assigned := make([]bool, n)
	var chains [][]int32
	memberOf := make([]int32, n)
	for _, head := range p.Order {
		if assigned[head] {
			continue
		}
		chain := []int32{head}
		assigned[head] = true
		sum := cost(head)
		tail := head
		for len(chain) < fuseMaxLen {
			succs := p.SuccsOf(tail)
			if len(succs) != 1 {
				break
			}
			next := succs[0]
			if assigned[next] || len(p.PredsOf(next)) != 1 || p.Kinds[next] != p.Kinds[head] {
				break
			}
			if sum+cost(next) > maxCost {
				break
			}
			chain = append(chain, next)
			assigned[next] = true
			sum += cost(next)
			tail = next
		}
		for _, m := range chain {
			memberOf[m] = int32(len(chains))
		}
		chains = append(chains, chain)
	}

	// Build the contracted graph. Contracting chains whose interior nodes
	// have no other edges cannot create a cycle (any fused edge lifts a
	// base path), so Compile's cycle check is a pure sanity net.
	super := New()
	for _, chain := range chains {
		head := chain[0]
		name := p.Names[head]
		if len(chain) > 1 {
			parts := make([]string, len(chain))
			for i, m := range chain {
				parts[i] = p.Names[m]
			}
			name = strings.Join(parts, "+")
		}
		members := chain
		sid := super.AddNode(name, p.Sections[head], func() {
			for _, m := range members {
				p.Run[m]()
			}
		})
		super.Node(sid).Kind = p.Kinds[head]
		for _, m := range chain {
			super.Node(sid).Cost.BaseUS += p.Costs[m].BaseUS
			super.Node(sid).Cost.DataUS += p.Costs[m].DataUS
		}
	}
	for v := int32(0); v < int32(n); v++ {
		for _, u := range p.PredsOf(v) {
			if su, sv := memberOf[u], memberOf[v]; su != sv {
				if err := super.AddEdge(int(su), int(sv)); err != nil {
					return nil, err
				}
			}
		}
	}
	fp, err := super.Compile()
	if err != nil {
		return nil, err
	}
	fp.Base = p
	fp.Members = chains

	// Re-rank the contracted plan with real unit costs (sum of members)
	// so RankOrder is critical-path-first under the supplied estimates.
	unitCost := make([]float64, len(chains))
	for i, chain := range chains {
		for _, m := range chain {
			unitCost[i] += cost(m)
		}
	}
	fp.computeRanks(unitCost)
	return fp, nil
}

// FusedUnits returns how many fused nodes contain more than one member
// (0 for an unfused plan).
func (p *Plan) FusedUnits() int {
	count := 0
	for _, m := range p.Members {
		if len(m) > 1 {
			count++
		}
	}
	return count
}
