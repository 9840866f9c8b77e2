package graph

import (
	"runtime"
	"strings"
	"testing"

	"djstar/internal/synth"
)

// buildDefault compiles the standard graph at zero scale (no spin work).
func buildDefault(t *testing.T) (*Session, *Plan) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.TrackBars = 4 // keep test setup fast
	s, g, err := BuildDJStar(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return s, p
}

// runSequential executes the plan in queue order (the reference executor).
func runSequential(p *Plan) {
	for _, id := range p.Order {
		p.Run[id]()
	}
}

func TestDJStarGraphShape(t *testing.T) {
	_, p := buildDefault(t)
	// Paper §IV: 67 nodes, 33 dependency-free sources.
	if p.Len() != 67 {
		t.Fatalf("node count = %d, want 67", p.Len())
	}
	if got := len(p.Sources()); got != 33 {
		t.Fatalf("source count = %d, want 33", got)
	}
	// Longest chain: SP -> FX1..FX4 -> Channel -> Mixer -> Master -> Out.
	if p.CriticalPathLen != 9 {
		t.Fatalf("critical path = %d nodes, want 9", p.CriticalPathLen)
	}
	if err := validateOrder(p); err != nil {
		t.Fatal(err)
	}
}

func TestDJStarNodeNamesUnique(t *testing.T) {
	_, p := buildDefault(t)
	seen := map[string]bool{}
	for _, n := range p.Names {
		if seen[n] {
			t.Fatalf("duplicate node name %q", n)
		}
		seen[n] = true
	}
	// Spot-check the Fig. 3 nodes exist.
	for _, want := range []string{"SPA1", "SPD4", "FXA1", "FXD4", "ChannelA",
		"ChannelD", "Mixer", "CueBuffer", "MonitorBuffer", "MasterBuffer",
		"AudioOut1", "RecordBuffer", "Sampler"} {
		if !seen[want] {
			t.Fatalf("node %q missing", want)
		}
	}
}

func TestDJStarSectionsAssigned(t *testing.T) {
	_, p := buildDefault(t)
	bySection := map[Section]int{}
	for _, s := range p.Sections {
		bySection[s]++
	}
	// 4 SP + 4 FX + 1 channel + 1 meter per deck = 10.
	for d := 0; d < 4; d++ {
		if got := bySection[DeckSection(d)]; got != 10 {
			t.Fatalf("section %v has %d nodes, want 10", DeckSection(d), got)
		}
	}
	if bySection[SectionControl] != 16 {
		t.Fatalf("control nodes = %d, want 16", bySection[SectionControl])
	}
	// 7 master-chain + 4 master meters = 11.
	if bySection[SectionMaster] != 11 {
		t.Fatalf("master nodes = %d, want 11", bySection[SectionMaster])
	}
}

func TestDJStarProducesAudio(t *testing.T) {
	s, p := buildDefault(t)
	var sawAudio bool
	for cycle := 0; cycle < 40; cycle++ {
		s.Prepare()
		runSequential(p)
		if s.MasterOut().Peak() > 0.01 {
			sawAudio = true
		}
	}
	if !sawAudio {
		t.Fatal("40 cycles produced no master output")
	}
	if s.Cycles() != 40 {
		t.Fatalf("Cycles = %d", s.Cycles())
	}
	// The monitor bus follows the cue/master path.
	if s.MonitorOut() == nil {
		t.Fatal("monitor buffer nil")
	}
}

func TestDJStarOutputIsBounded(t *testing.T) {
	s, p := buildDefault(t)
	for cycle := 0; cycle < 200; cycle++ {
		s.Prepare()
		runSequential(p)
		if peak := s.MasterOut().Peak(); peak > 0.98+1e-9 {
			t.Fatalf("cycle %d: output %v exceeds clip ceiling", cycle, peak)
		}
		if peak := s.RecordOut().Peak(); peak > 0.98+1e-9 {
			t.Fatalf("cycle %d: record %v exceeds clip ceiling", cycle, peak)
		}
	}
}

func TestDJStarActivityTracksLoudness(t *testing.T) {
	s, p := buildDefault(t)
	counts := map[bool]int{}
	// Run ~14 s of audio: the synthetic tracks alternate loud/quiet every
	// two bars, so both states must appear on deck A.
	for cycle := 0; cycle < 5000; cycle++ {
		s.Prepare()
		counts[s.active[0]]++
		_ = p
	}
	if counts[true] == 0 || counts[false] == 0 {
		t.Fatalf("activity never toggled: %v", counts)
	}
}

func TestDJStarSpectrumAndMeters(t *testing.T) {
	s, p := buildDefault(t)
	for cycle := 0; cycle < 50; cycle++ {
		s.Prepare()
		runSequential(p)
	}
	spec := s.specMag
	if len(spec) != 64 {
		t.Fatalf("spectrum bins = %d", len(spec))
	}
	var nonZero bool
	for _, m := range spec {
		if m > 0 {
			nonZero = true
		}
	}
	if !nonZero {
		t.Fatal("spectrum all zero after 50 cycles")
	}
	if s.Loudness() <= 0 {
		t.Fatal("loudness meter never moved")
	}
}

func TestDJStarConfigVariants(t *testing.T) {
	for _, decks := range []int{1, 2, 3, 4} {
		cfg := DefaultConfig()
		cfg.Decks = decks
		cfg.TrackBars = 2
		s, g, err := BuildDJStar(cfg)
		if err != nil {
			t.Fatalf("decks=%d: %v", decks, err)
		}
		p, err := g.Compile()
		if err != nil {
			t.Fatalf("decks=%d: %v", decks, err)
		}
		want := decks*10 + 7 + 16 + 4
		if p.Len() != want {
			t.Fatalf("decks=%d: %d nodes, want %d", decks, p.Len(), want)
		}
		s.Prepare()
		runSequential(p)
	}
}

func TestDJStarNoFXVariant(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FXPerDeck = 0
	cfg.TrackBars = 2
	s, g, err := BuildDJStar(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	// 4*(4 SP + 1 channel) + 7 master + 16 control + 8 meter nodes.
	if p.Len() != 51 {
		t.Fatalf("node count = %d, want 51", p.Len())
	}
	for i := 0; i < 20; i++ {
		s.Prepare()
		runSequential(p)
	}
	if s.MasterOut().Peak() == 0 {
		t.Fatal("no output without FX")
	}
}

func TestDJStarConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Decks = 0 },
		func(c *Config) { c.Decks = 5 },
		func(c *Config) { c.FXPerDeck = 9 },
		func(c *Config) { c.Scale = -1 },
		func(c *Config) { c.Scale = 1 }, // without calibration
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, _, err := BuildDJStar(cfg); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestDJStarCustomTracks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TrackBars = 2
	tr := synth.GenerateTrack(synth.TrackSpec{Name: "custom", Bars: 2, Seed: 42})
	cfg.Tracks = []*synth.Track{tr}
	s, _, err := BuildDJStar(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Decks[0].Track() != tr {
		t.Fatal("custom track not loaded on deck A")
	}
	if s.Decks[1].Track() == tr {
		t.Fatal("custom track leaked to deck B")
	}
}

func TestDJStarGraphExecutionNoAlloc(t *testing.T) {
	s, p := buildDefault(t)
	// Warm up (fills delay lines etc.).
	for i := 0; i < 5; i++ {
		s.Prepare()
		runSequential(p)
	}
	allocs := testing.AllocsPerRun(50, func() {
		s.Prepare()
		runSequential(p)
	})
	if allocs != 0 {
		t.Fatalf("graph cycle allocates %v per run, want 0", allocs)
	}
}

// TestSessionStateBytes holds what BuildDJStar allocates for one session,
// tracks excluded, to the state its units can reach (DESIGN.md §29):
// every delay line at its exact reach, the echo's lines and the beat
// masher's capture as float32, no sampler clip. Worst-case sizing came to
// about 3.8 MiB, power-of-two float64 lines sized by reach to 1.84 MiB;
// this measures 0.97.
func TestSessionStateBytes(t *testing.T) {
	cfg := DefaultConfig()
	tracks := synth.StandardDeckTracks(cfg.TrackBars)
	cfg.Tracks = tracks[:]
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, _, err := BuildDJStar(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	if got > 1.25 {
		t.Fatalf("BuildDJStar allocated %.2f MiB beside its tracks, want at most 1.25", got)
	}
	t.Logf("%.2f MiB per session", got)
}

func TestDJStarControlNodeNames(t *testing.T) {
	_, p := buildDefault(t)
	var ctrl int
	for _, n := range p.Names {
		if strings.HasPrefix(n, "Ctrl") {
			ctrl++
		}
	}
	if ctrl != 16 {
		t.Fatalf("control nodes = %d, want 16", ctrl)
	}
}

// TestListFinishAllocatesNothing: given its output slices, the thread-chain
// sweep over the dealt lists of the standard plan allocates nothing.
func TestListFinishAllocatesNothing(t *testing.T) {
	_, p := buildDefault(t)
	lists := p.RoundRobinLists(4)
	start, finish := make([]float64, p.Len()), make([]float64, p.Len())
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		_, _, err = p.ListFinish(lists, nil, 0.5, 10, start, finish)
	})
	if allocs != 0 || err != nil {
		t.Fatalf("ListFinish: %v allocations per run (err %v), want 0", allocs, err)
	}
}
