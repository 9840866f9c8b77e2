package admission

import "djstar/internal/graph"

// A second kind→rung rule.
func shedsAtFirstRung(k graph.NodeKind) bool {
	return k == graph.KindMeter || k == graph.KindControl
}
