package graph

import (
	"fmt"
	"strconv"
	"strings"

	"djstar/internal/audio"
)

// Live-performance patch vocabulary: a small, serializable set of
// topology edits a performer can apply mid-set (djstar stdin, -script
// timed cues, POST /v1/sessions/{id}/edits). Each spec compiles to an
// EditSet against the engine's current graph:
//
//	insert-delay:<deck>[:units]  insert a chain of in-place stereo
//	                             delay nodes between Channel<deck> and
//	                             all of its successors
//	remove-delay:<deck>          excise that chain again, bridging the
//	                             channel back to its old successors
//	drop-node:<name>             remove a sink node (no successors),
//	                             e.g. a meter
//
// The delay nodes carry their delay lines in Node.State with a Migrate
// hook, so re-patching around them (or re-inserting after a remove)
// preserves the audible tail instead of clicking.

// liveDelayMS is the delay time of one inserted delay unit.
const liveDelayMS = 120

// liveDelayState is the migratable state of one live delay node: the
// circular delay lines and write position.
type liveDelayState struct {
	bufL, bufR []float64
	pos        int
}

func newLiveDelayState() *liveDelayState {
	const n = audio.SampleRate * liveDelayMS / 1000
	return &liveDelayState{bufL: make([]float64, n), bufR: make([]float64, n)}
}

// adopt carries a previous epoch's delay line over; every line has the
// same length.
func (st *liveDelayState) adopt(prev *liveDelayState) {
	if prev == nil {
		return
	}
	copy(st.bufL, prev.bufL)
	copy(st.bufR, prev.bufR)
	st.pos = prev.pos
}

// process runs the feedback delay in place over one packet.
func (st *liveDelayState) process(pkt audio.Stereo, feedback, wet float64) {
	n := len(st.bufL)
	for i := 0; i < pkt.Len(); i++ {
		dl, dr := st.bufL[st.pos], st.bufR[st.pos]
		st.bufL[st.pos] = pkt.L[i] + dl*feedback
		st.bufR[st.pos] = pkt.R[i] + dr*feedback
		pkt.L[i] += dl * wet
		pkt.R[i] += dr * wet
		st.pos++
		if st.pos >= n {
			st.pos = 0
		}
	}
}

// NodeByName returns the ID of the node with the given name, or -1.
func (g *Graph) NodeByName(name string) int {
	for _, n := range g.nodes {
		if n.Name == name {
			return n.ID
		}
	}
	return -1
}

// liveDelayName names unit i (1-based) of deck's live delay chain.
func liveDelayName(deck string, i int) string {
	return fmt.Sprintf("LiveDelay%s%d", deck, i)
}

// BuildPatch compiles a patch spec into an EditSet against g, which
// must be (a descendant of) the graph this session was built with. The
// session owns the audio buffers the patched nodes process, so specs
// are resolved against it (deck count, sample rate, mix buffers).
func (s *Session) BuildPatch(g *Graph, spec string) (*EditSet, error) {
	parts := strings.Split(strings.TrimSpace(spec), ":")
	switch parts[0] {
	case "insert-delay":
		if len(parts) < 2 {
			return nil, fmt.Errorf("graph: patch %q: want insert-delay:<deck>[:units]", spec)
		}
		units := 1
		if len(parts) >= 3 {
			u, err := strconv.Atoi(parts[2])
			if err != nil || u < 1 || u > 8 {
				return nil, fmt.Errorf("graph: patch %q: units must be 1..8", spec)
			}
			units = u
		}
		return s.buildInsertDelay(g, parts[1], units)
	case "remove-delay":
		if len(parts) != 2 {
			return nil, fmt.Errorf("graph: patch %q: want remove-delay:<deck>", spec)
		}
		return s.buildRemoveDelay(g, parts[1])
	case "drop-node":
		if len(parts) != 2 || parts[1] == "" {
			return nil, fmt.Errorf("graph: patch %q: want drop-node:<name>", spec)
		}
		return buildDropNode(g, parts[1])
	default:
		return nil, fmt.Errorf("graph: unknown patch %q", spec)
	}
}

// deckIndex resolves "A".."D" against the session's configured decks.
func (s *Session) deckIndex(deck string) (int, error) {
	names := []string{"A", "B", "C", "D"}
	for d := 0; d < s.cfg.Decks; d++ {
		if names[d] == deck {
			return d, nil
		}
	}
	return 0, fmt.Errorf("graph: no deck %q (have %d decks)", deck, s.cfg.Decks)
}

// buildInsertDelay inserts `units` chained delay nodes downstream of
// Channel<deck>: every current successor of the channel is retargeted
// to the chain tail. Retargeting ALL successors (mixer and meter alike)
// matters — the delays process s.deckMix[deck] in place, so any old
// direct successor still reading that buffer would race with them.
func (s *Session) buildInsertDelay(g *Graph, deck string, units int) (*EditSet, error) {
	d, err := s.deckIndex(deck)
	if err != nil {
		return nil, err
	}
	chID := g.NodeByName("Channel" + deck)
	if chID < 0 {
		return nil, fmt.Errorf("graph: patch: no Channel%s node", deck)
	}
	if g.NodeByName(liveDelayName(deck, 1)) >= 0 {
		return nil, fmt.Errorf("graph: patch: deck %s already has a live delay", deck)
	}
	succs := append([]int(nil), g.Node(chID).Succs()...)

	es := &EditSet{}
	prev := NodeRef(chID)
	for i := 1; i <= units; i++ {
		st := newLiveDelayState()
		mix := s.deckMix[d]
		ref := es.AddNode(NodeSpec{
			Name:    liveDelayName(deck, i),
			Section: DeckSection(d),
			Kind:    KindFX,
			Run:     func() { st.process(mix, 0.45, 0.5) },
			Flush:   func() { mix.Zero() },
			State:   st,
			Migrate: func(prev any) {
				if p, ok := prev.(*liveDelayState); ok {
					st.adopt(p)
				}
			},
		})
		es.AddEdge(prev, ref)
		prev = ref
	}
	for _, succ := range succs {
		es.RemoveEdge(NodeRef(chID), NodeRef(succ))
		es.AddEdge(prev, NodeRef(succ))
	}
	return es, nil
}

// buildRemoveDelay excises deck's live delay chain; ReplaceChain with
// no specs bridges Channel<deck> back to the chain's successors.
func (s *Session) buildRemoveDelay(g *Graph, deck string) (*EditSet, error) {
	if _, err := s.deckIndex(deck); err != nil {
		return nil, err
	}
	var chain []NodeRef
	for i := 1; ; i++ {
		id := g.NodeByName(liveDelayName(deck, i))
		if id < 0 {
			break
		}
		chain = append(chain, NodeRef(id))
	}
	if len(chain) == 0 {
		return nil, fmt.Errorf("graph: patch: deck %s has no live delay", deck)
	}
	es := &EditSet{}
	es.ReplaceChain(chain)
	return es, nil
}

// buildDropNode removes a sink node (no successors) by name — dropping
// a node something depends on would silently unfeed it.
func buildDropNode(g *Graph, name string) (*EditSet, error) {
	id := g.NodeByName(name)
	if id < 0 {
		return nil, fmt.Errorf("graph: patch: no node %q", name)
	}
	if len(g.Node(id).Succs()) > 0 {
		return nil, fmt.Errorf("graph: patch: %q has successors; only sinks can be dropped", name)
	}
	es := &EditSet{}
	es.RemoveNode(NodeRef(id))
	return es, nil
}
