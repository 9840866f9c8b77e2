package main

import "testing"

// An analysis with no cycles or no threads has measured nothing: it must
// fail before building an engine, not print zeros and pass its audit.
func TestAnalysesRejectEmptyRuns(t *testing.T) {
	if err := analyzeAdmit(0, 0, 2); err == nil {
		t.Error("analyzeAdmit with 0 cycles passed")
	}
	if err := analyzeAdmit(10, 0, 0); err == nil {
		t.Error("analyzeAdmit with 0 threads passed")
	}
	if err := analyzeGraph(0, 0, 2); err == nil {
		t.Error("analyzeGraph with 0 cycles passed")
	}
	if err := analyzeGraph(10, 0, 0); err == nil {
		t.Error("analyzeGraph with 0 threads passed")
	}
}

func TestRunExitCodes(t *testing.T) {
	for _, c := range []struct {
		args []string
		want int
	}{
		{nil, 2},                         // no analysis chosen
		{[]string{"-cycles", "10"}, 2},   // settings but still no analysis
		{[]string{"set.wav"}, 2},         // positional arguments name nothing
		{[]string{"-graph", "x.wav"}, 2}, // ... even beside a mode
		{[]string{"-admit", "-cycles", "0", "-threads", "2", "-scale", "0"}, 1},
		{[]string{"-graph", "-threads", "0", "-scale", "0"}, 1},
	} {
		if got := run(c.args); got != c.want {
			t.Errorf("djanalyze %q exits %d, want %d", c.args, got, c.want)
		}
	}
}
