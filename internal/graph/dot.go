package graph

import (
	"fmt"
	"io"
	"strings"
)

// WriteDOT renders the graph in Graphviz DOT format, clustered by mixer
// section — a machine-readable Fig. 3. Render with:
//
//	go run ./cmd/djanalyze -dot | dot -Tsvg > graph.svg
func (g *Graph) WriteDOT(w io.Writer, title string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", title)
	b.WriteString("  rankdir=LR;\n  node [shape=box, fontsize=10];\n")

	bySection := map[Section][]*Node{}
	for _, n := range g.nodes {
		bySection[n.Section] = append(bySection[n.Section], n)
	}
	for sec := Section(0); sec < numSections; sec++ {
		nodes := bySection[sec]
		if len(nodes) == 0 {
			continue
		}
		fmt.Fprintf(&b, "  subgraph \"cluster_%s\" {\n    label=%q;\n", sec, sec.String())
		for _, n := range nodes {
			fmt.Fprintf(&b, "    n%d [label=%q];\n", n.ID, n.Name)
		}
		b.WriteString("  }\n")
	}
	for _, n := range g.nodes {
		for _, s := range n.succs {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", n.ID, s)
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
