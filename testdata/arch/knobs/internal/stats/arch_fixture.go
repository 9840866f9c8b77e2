package stats

// FixtureConfig is a configuration whose field no program sets.
type FixtureConfig struct {
	Depth int
}
