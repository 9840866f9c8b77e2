package stats

// ExportedForTests has a user only in a test file.
func ExportedForTests() int { return 1 }
