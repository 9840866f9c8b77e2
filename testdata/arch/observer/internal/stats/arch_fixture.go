package stats

// A second measuring path, with the interface's own signature.
type nodeTimes struct{ n int }

func (t *nodeTimes) BeginCycle() {}

func (t *nodeTimes) Record(node, worker int32, start, end int64) { t.n++ }
