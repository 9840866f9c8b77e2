package rescon

import (
	"strings"

	"djstar/internal/graph"
)

// Costs keyed by node name.
func costByName(name string) graph.Cost {
	if strings.HasPrefix(name, "FX") {
		return graph.CostFX
	}
	if name == "SP" {
		return graph.CostSP
	}
	return graph.Cost{}
}
