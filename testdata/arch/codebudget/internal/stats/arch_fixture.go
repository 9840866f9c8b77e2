package stats

// One more line of non-test code.
func unbudgeted() {}
