package stats

// A second measuring path under other parameter names, which no text
// match sees.
type nodeTimes struct{ n int }

func (t *nodeTimes) BeginCycle() {}

func (t *nodeTimes) Record(id, w int32, t0, t1 int64) { t.n++ }

func (t *nodeTimes) EndCycle() {}
