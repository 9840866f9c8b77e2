package sched

// A third executor lifecycle.
type thirdExecutor struct{ closed bool }

func (x *thirdExecutor) Execute() {
	if x.closed {
		panic("sched: Execute called after Close")
	}
}
