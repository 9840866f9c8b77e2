package graph

import (
	"errors"
	"fmt"

	"djstar/internal/audio"
	"djstar/internal/deck"
	"djstar/internal/dsp"
	"djstar/internal/effects"
	"djstar/internal/faults"
	"djstar/internal/mixer"
	"djstar/internal/synth"
)

// Config parameterizes the standard DJ Star graph. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	// Decks is the number of active decks, 1..4.
	Decks int
	// FXPerDeck is the effect chain length per deck, 0..4.
	FXPerDeck int
	// Scale is the global node cost scale: 1.0 reproduces the paper's
	// microsecond-scale node costs via calibrated spin work; 0 disables
	// spin work entirely (pure DSP, used by fast unit tests).
	Scale float64
	// Calibration converts cost targets to spin units. Required when
	// Scale > 0.
	Calibration Calibration
	// Tracks provides the deck audio. Missing entries are filled with the
	// standard synthetic tracks.
	Tracks []*synth.Track
	// TrackBars sizes the default synthetic tracks (16 bars ≈ 30 s).
	TrackBars int
	// Faults, when set, wraps every node with the injector so failure
	// scenarios (panic, stall, slow, jitter) fire at scripted cycles.
	// Session.Prepare advances the injector's cycle counter.
	Faults *faults.Injector
	// LoadFactor, when set, scales every node's spin cost target at run
	// time (shared with the engine's TP/GP/VC loads); the engine's
	// deadline governor and overload experiments drive it.
	LoadFactor *LoadFactor
}

// DefaultConfig returns the paper's evaluation configuration: 4 decks,
// 4 SP sources and 4 effects each, 16 control nodes, meters on — the
// 67-node graph with 33 sources.
func DefaultConfig() Config {
	return Config{
		Decks:     4,
		FXPerDeck: 4,
		Scale:     0,
		TrackBars: 16,
	}
}

// The standard graph's fixed shape: four SP band sources per deck and
// 16 control nodes, beside the eight meters (DESIGN.md §4).
const (
	spPerDeck    = 4
	controlNodes = 16
)

// ErrInvalidConfig is wrapped by every error BuildDJStar returns for a Config it rejects.
var ErrInvalidConfig = errors.New("graph: invalid config")

func (c *Config) normalize() error {
	if c.Decks < 1 || c.Decks > 4 {
		return fmt.Errorf("%w: Decks = %d, want 1..4", ErrInvalidConfig, c.Decks)
	}
	if c.FXPerDeck < 0 || c.FXPerDeck > 4 {
		return fmt.Errorf("%w: FXPerDeck = %d, want 0..4", ErrInvalidConfig, c.FXPerDeck)
	}
	if c.Scale < 0 {
		return fmt.Errorf("%w: Scale = %v, want >= 0", ErrInvalidConfig, c.Scale)
	}
	if c.Scale > 0 && c.Calibration.NanosPerUnit <= 0 {
		return fmt.Errorf("%w: Scale %v requires a Calibration", ErrInvalidConfig, c.Scale)
	}
	if c.TrackBars <= 0 {
		c.TrackBars = 16
	}
	return nil
}

// Session owns the audio state the DJ Star graph operates on: decks,
// effect racks, mixer, buses and all packet buffers. All buffers are
// preallocated; executing the graph does not allocate.
type Session struct {
	cfg Config

	// Decks are the track players feeding the graph.
	Decks []*deck.Deck
	// Strips are the mixer channel strips, one per deck.
	Strips []*mixer.ChannelStrip
	// Mix is the crossfader/master/cue mixer.
	Mix *mixer.Mixer
	// Sampler is the one-shot clip player mixed into the master, built empty (silent).
	Sampler *mixer.Sampler

	// FX holds each deck's effect chain; FX[d][j] is unit j of deck d.
	FX [][]effects.Effect

	deckIn     []audio.Stereo // per deck: preprocessed input packet (GP)
	active     []bool         // per deck: loud input this cycle
	spBuf      [][]audio.Stereo
	spFiltL    [][]*dsp.Biquad
	spFiltR    [][]*dsp.Biquad
	deckMix    []audio.Stereo
	chanInputs []mixer.ChannelInput

	samplerBuf  audio.Stereo
	masterMix   audio.Stereo
	masterBuf   audio.Stereo
	masterMono  audio.Buffer
	cueBuf      audio.Stereo
	monitorMono audio.Buffer
	outBuf      audio.Stereo
	recordBuf   audio.Stereo

	outStage *mixer.OutputStage
	recStage *mixer.OutputStage

	deckMeters []*mixer.VUMeter
	masterVU   *mixer.VUMeter
	cueVU      *mixer.VUMeter
	spectrum   *dsp.FFT
	specRe     []float64
	specIm     []float64
	specMag    []float64
	loudness   float64

	controlState []float64

	cycles int64 // Prepare invocations
}

// Cycles returns how many times Prepare has run.
func (s *Session) Cycles() int64 { return s.cycles }

// MasterOut returns the buffer written by the AudioOut1 node (valid after
// a graph execution).
func (s *Session) MasterOut() audio.Stereo { return s.outBuf }

// MonitorOut returns the mono monitor buffer.
func (s *Session) MonitorOut() audio.Buffer { return s.monitorMono }

// RecordOut returns the record-path buffer.
func (s *Session) RecordOut() audio.Stereo { return s.recordBuf }

// Loudness returns the smoothed master loudness.
func (s *Session) Loudness() float64 { return s.loudness }

// DeckMixRMS returns the RMS of deck d's post-FX mix buffer from the last
// graph execution; chaos experiments use it to count silent packets after
// a fault flush.
func (s *Session) DeckMixRMS(d int) float64 { return s.deckMix[d].RMS() }

// OutputStage exposes the AudioOut1 limiter/clipper for diagnostics.
func (s *Session) OutputStage() *mixer.OutputStage { return s.outStage }

// activityThreshold is the RMS above which a deck's packet counts as
// "loud", switching its FX nodes onto the expensive path. The synthetic
// tracks' loud bars sit well above it, quiet bars well below.
const activityThreshold = 0.05

// Prepare runs the per-cycle preprocessing stage (GP in the paper's APC
// decomposition): it pulls one resampled (and, with key lock on,
// pitch-compensated) packet from every deck and updates the activity
// flags.
// It must be called before each graph execution and never concurrently
// with one.
func (s *Session) Prepare() {
	if s.cfg.Faults != nil {
		s.cfg.Faults.BeginCycle()
	}
	for d, dk := range s.Decks {
		dk.ReadPacket(s.deckIn[d])
		s.active[d] = s.deckIn[d].RMS() > activityThreshold
	}
	s.cycles++
}

// BuildDJStar constructs the standard DJ Star task graph and its session
// state. The returned Graph is ready to Compile; the Session must have
// Prepare called once per cycle before executing the compiled plan.
func BuildDJStar(cfg Config) (*Session, *Graph, error) {
	if err := cfg.normalize(); err != nil {
		return nil, nil, err
	}
	s := newSession(cfg)
	g := New()

	// add registers a node whose cost is topped up to the target: the
	// kernel runs the real DSP and returns whether the node's input was
	// "active" (loud), which selects the data-dependent extra cost; the
	// target is recorded as the node's design cost. The meta carries the node's degradation classification and its
	// quarantine/shed bypass and fault-flush hooks; the fault injector
	// (when configured) wraps the finished run function so scripted
	// failures fire inside the node, under the scheduler's recovery.
	type meta struct {
		kind   NodeKind
		bypass func()
		flush  func()
	}
	addMeta := func(name string, sec Section, c Cost, kernel func() bool, x meta) int {
		l := NewLoad(c, cfg.Calibration, cfg.Scale).WithFactor(cfg.LoadFactor)
		var run func()
		if !l.Enabled() {
			run = func() { kernel() }
		} else {
			run = func() {
				start := nowNanos()
				active := kernel()
				l.RunSince(start, active)
			}
		}
		if cfg.Faults != nil {
			run = cfg.Faults.Wrap(name, run)
		}
		id := g.AddNode(name, sec, run)
		n := g.Node(id)
		n.Kind = x.kind
		n.Cost = c
		n.Bypass = x.bypass
		n.Flush = x.flush
		return id
	}

	deckNames := []string{"A", "B", "C", "D"}
	channelIDs := make([]int, cfg.Decks)

	for d := 0; d < cfg.Decks; d++ {
		d := d
		sec := DeckSection(d)
		spIDs := make([]int, spPerDeck)

		// SP sources: per-band filters over the deck's input packet.
		for i := 0; i < spPerDeck; i++ {
			i := i
			spIDs[i] = addMeta(fmt.Sprintf("SP%s%d", deckNames[d], i+1), sec, CostSP, func() bool {
				buf, in := s.spBuf[d][i], s.deckIn[d]
				dsp.ProcessPair(s.spFiltL[d][i], s.spFiltR[d][i], buf.L, buf.R, in.L, in.R)
				return s.active[d]
			}, meta{
				kind:   KindAudio,
				bypass: func() { s.spBuf[d][i].CopyFrom(s.deckIn[d]) },
				flush:  func() { s.spBuf[d][i].Zero() },
			})
		}

		// FX chain: FX1 gathers the SP bands, FX2..FXn process in place.
		// FX1's bypass gathers the dry mix without the effect so the chain
		// stays fed while FX1 is quarantined or shed; the in-place units'
		// nil bypass means "skip", which passes the dry signal through.
		bands, gain := (*[spPerDeck]audio.Stereo)(s.spBuf[d]), 1/float64(spPerDeck)
		gather := func() { gatherBands(s.deckMix[d], bands, gain) }
		prev := -1
		for j := 0; j < cfg.FXPerDeck; j++ {
			j := j
			var kernel func() bool
			x := meta{
				kind:  KindFX,
				flush: func() { s.deckMix[d].Zero() },
			}
			if j == 0 {
				kernel = func() bool {
					gather()
					s.FX[d][0].Process(s.deckMix[d])
					return s.active[d]
				}
				x.bypass = gather
			} else {
				kernel = func() bool {
					s.FX[d][j].Process(s.deckMix[d])
					return s.active[d]
				}
			}
			id := addMeta(fmt.Sprintf("FX%s%d", deckNames[d], j+1), sec, CostFX, kernel, x)
			if j == 0 {
				for _, sp := range spIDs {
					mustEdge(g, sp, id)
				}
			} else {
				mustEdge(g, prev, id)
			}
			prev = id
		}

		// Channel strip.
		{
			x := meta{
				kind:  KindAudio,
				flush: func() { s.deckMix[d].Zero() },
			}
			if cfg.FXPerDeck == 0 {
				// Without FX the channel gathers the SP bands itself, so a
				// quarantined channel must still gather or the deck goes
				// stale; with FX the strip is in-place and skipping it
				// passes the deck mix through.
				x.bypass = gather
			}
			id := addMeta("Channel"+deckNames[d], sec, CostChannel, func() bool {
				if cfg.FXPerDeck == 0 {
					gather()
				}
				s.Strips[d].Process(s.deckMix[d])
				return s.active[d]
			}, x)
			if prev >= 0 {
				mustEdge(g, prev, id)
			} else {
				for _, sp := range spIDs {
					mustEdge(g, sp, id)
				}
			}
			channelIDs[d] = id
		}
	}

	// Sampler source.
	samplerID := addMeta("Sampler", SectionMaster, CostSampler, func() bool {
		s.Sampler.ReadPacket(s.samplerBuf)
		return s.Sampler.Playing()
	}, meta{
		kind:   KindAudio,
		bypass: func() { s.samplerBuf.Zero() },
		flush:  func() { s.samplerBuf.Zero() },
	})

	// Mixer: all channels + sampler.
	mixerID := addMeta("Mixer", SectionMaster, CostMixer, func() bool {
		s.Mix.MixInto(s.masterMix, s.chanInputs, s.samplerBuf)
		return true
	}, meta{
		kind:   KindAudio,
		bypass: func() { s.masterMix.Zero() },
		flush:  func() { s.masterMix.Zero() },
	})
	for _, ch := range channelIDs {
		mustEdge(g, ch, mixerID)
	}
	mustEdge(g, samplerID, mixerID)

	// Cue buffer (needs the channels and the mixed master for blending).
	cueID := addMeta("CueBuffer", SectionMaster, CostCue, func() bool {
		s.Mix.CueInto(s.cueBuf, s.chanInputs, s.masterMix)
		return true
	}, meta{
		kind:   KindAudio,
		bypass: func() { s.cueBuf.Zero() },
		flush:  func() { s.cueBuf.Zero() },
	})
	mustEdge(g, mixerID, cueID)

	// Monitor buffer: mono downmix of the cue bus.
	monitorID := addMeta("MonitorBuffer", SectionMaster, CostMonitor, func() bool {
		s.cueBuf.Mono(s.monitorMono)
		return true
	}, meta{
		kind:   KindAudio,
		bypass: func() { s.monitorMono.Zero() },
		flush:  func() { s.monitorMono.Zero() },
	})
	mustEdge(g, cueID, monitorID)

	// Master buffer: snapshot + mono reference of the mix.
	masterID := addMeta("MasterBuffer", SectionMaster, CostMaster, func() bool {
		s.masterBuf.CopyFrom(s.masterMix)
		s.masterBuf.Mono(s.masterMono)
		return true
	}, meta{
		kind: KindAudio,
		bypass: func() {
			s.masterBuf.Zero()
			s.masterMono.Zero()
		},
		flush: func() {
			s.masterBuf.Zero()
			s.masterMono.Zero()
		},
	})
	mustEdge(g, mixerID, masterID)

	// Output and record paths.
	outID := addMeta("AudioOut1", SectionMaster, CostOut, func() bool {
		s.outBuf.CopyFrom(s.masterBuf)
		s.outStage.Process(s.outBuf)
		return true
	}, meta{
		kind:   KindAudio,
		bypass: func() { s.outBuf.Zero() },
		flush:  func() { s.outBuf.Zero() },
	})
	mustEdge(g, masterID, outID)

	recordID := addMeta("RecordBuffer", SectionMaster, CostRecord, func() bool {
		s.recordBuf.CopyFrom(s.masterBuf)
		s.recStage.Process(s.recordBuf)
		return true
	}, meta{
		kind:   KindAudio,
		bypass: func() { s.recordBuf.Zero() },
		flush:  func() { s.recordBuf.Zero() },
	})
	mustEdge(g, masterID, recordID)

	// Control sources: short, dependency-free, do not modify audio
	// (paper: "some have no dependencies and do not modify the audio
	// packets ... we also included them for a fair average").
	ctrlKinds := []string{"BeatGrid", "TempoSync", "KeyDisplay", "PhaseMeter"}
	for i := 0; i < controlNodes; i++ {
		i := i
		kind := ctrlKinds[i%len(ctrlKinds)]
		d := i % cfg.Decks
		addMeta(fmt.Sprintf("Ctrl%s%s", kind, deckNames[d]+suffix(i/len(ctrlKinds))),
			SectionControl, CostControl, func() bool {
				// Tiny deterministic state update (beat phase tracking).
				s.controlState[i] = dsp.Settle(0.9*s.controlState[i] + 0.1*s.Decks[d].BeatPhase())
				return false
			}, meta{kind: KindControl})
	}

	// Metering nodes.
	for d := 0; d < cfg.Decks; d++ {
		d := d
		id := addMeta("Meter"+deckNames[d], DeckSection(d), CostMeter, func() bool {
			s.deckMeters[d].Update(s.deckMix[d])
			return false
		}, meta{kind: KindMeter})
		mustEdge(g, channelIDs[d], id)
	}
	id := addMeta("MasterVU", SectionMaster, CostMeter, func() bool {
		s.masterVU.Update(s.masterBuf)
		return false
	}, meta{kind: KindMeter})
	mustEdge(g, masterID, id)

	id = addMeta("CueVU", SectionMaster, CostMeter, func() bool {
		s.cueVU.Update(s.cueBuf)
		return false
	}, meta{kind: KindMeter})
	mustEdge(g, cueID, id)

	id = addMeta("Spectrum", SectionMaster, CostMeter, func() bool {
		// The packet, zero-padded to the transform size.
		clear(s.specRe[copy(s.specRe, s.masterMono):])
		clear(s.specIm)
		s.spectrum.Transform(s.specRe, s.specIm)
		dsp.Magnitudes(s.specRe, s.specIm, s.specMag)
		return false
	}, meta{kind: KindMeter})
	mustEdge(g, masterID, id)

	id = addMeta("Loudness", SectionMaster, CostMeter, func() bool {
		s.loudness = dsp.Settle(0.95*s.loudness + 0.05*s.masterBuf.RMS())
		return false
	}, meta{kind: KindMeter})
	mustEdge(g, masterID, id)

	return s, g, nil
}

// suffix distinguishes repeated control nodes ("", "2", "3", ...).
func suffix(i int) string {
	if i == 0 {
		return ""
	}
	return fmt.Sprintf("%d", i+1)
}

func mustEdge(g *Graph, from, to int) {
	if err := g.AddEdge(from, to); err != nil {
		panic(err) // builder bug: indices are generated locally
	}
}

// gatherBands mixes a deck's four SP bands into mix at gain, one pass
// per channel, each sample from +0 in band order: the bits of zeroing mix
// and adding the bands one by one.
func gatherBands(mix audio.Stereo, b *[4]audio.Stereo, g float64) {
	gather4(mix.L, b[0].L, b[1].L, b[2].L, b[3].L, g)
	gather4(mix.R, b[0].R, b[1].R, b[2].R, b[3].R, g)
}

// gather4 sums four bands into dst in one pass. Every band is resliced to
// dst's length once, so the loop carries no bounds check.
func gather4(dst, a, b, c, d audio.Buffer, g float64) {
	n := len(dst)
	a, b, c, d = a[:n], b[:n], c[:n], d[:n]
	for i := range dst {
		dst[i] = 0 + a[i]*g + b[i]*g + c[i]*g + d[i]*g
	}
}

// newSession allocates all state and buffers for the configuration.
func newSession(cfg Config) *Session {
	n := audio.PacketSize
	s := &Session{
		cfg:          cfg,
		Mix:          mixer.NewMixer(),
		Sampler:      mixer.NewSampler(),
		samplerBuf:   audio.NewStereo(n),
		masterMix:    audio.NewStereo(n),
		masterBuf:    audio.NewStereo(n),
		masterMono:   audio.NewBuffer(n),
		cueBuf:       audio.NewStereo(n),
		monitorMono:  audio.NewBuffer(n),
		outBuf:       audio.NewStereo(n),
		recordBuf:    audio.NewStereo(n),
		outStage:     mixer.NewOutputStage(0.98, audio.SampleRate),
		recStage:     mixer.NewOutputStage(0.98, audio.SampleRate),
		masterVU:     mixer.NewVUMeter(0.95),
		cueVU:        mixer.NewVUMeter(0.95),
		spectrum:     dsp.MustFFT(128),
		controlState: make([]float64, controlNodes),
	}
	s.specRe = make([]float64, 128)
	s.specIm = make([]float64, 128)
	s.specMag = make([]float64, 64)

	deckNames := []string{"deck-a", "deck-b", "deck-c", "deck-d"}
	tempos := []float64{1.0, 0.97, 1.03, 0.99}
	var defaultTracks [4]*synth.Track
	haveDefaults := false

	for d := 0; d < cfg.Decks; d++ {
		dk := deck.New(deckNames[d], audio.SampleRate)
		var tr *synth.Track
		if d < len(cfg.Tracks) && cfg.Tracks[d] != nil {
			tr = cfg.Tracks[d]
		} else {
			if !haveDefaults {
				defaultTracks = synth.StandardDeckTracks(cfg.TrackBars)
				haveDefaults = true
			}
			tr = defaultTracks[d]
		}
		dk.Load(tr)
		dk.SetLoop(0, float64(tr.Len())) // loop forever for long runs
		dk.SetTempo(tempos[d])
		dk.SetKeyLock(d%2 == 1) // two decks exercise the pitch shifter
		dk.Play()
		s.Decks = append(s.Decks, dk)

		strip := mixer.NewChannelStrip("channel-"+deckNames[d], audio.SampleRate)
		if d%2 == 0 {
			strip.SetCrossfadeSide(mixer.CrossfadeA)
		} else {
			strip.SetCrossfadeSide(mixer.CrossfadeB)
		}
		s.Strips = append(s.Strips, strip)

		s.deckIn = append(s.deckIn, audio.NewStereo(n))
		s.deckMix = append(s.deckMix, audio.NewStereo(n))
		s.active = append(s.active, false)

		// SP band filters: split the spectrum into four bands.
		bands := []struct {
			kind dsp.FilterKind
			freq float64
		}{
			{dsp.LowPass, 200},
			{dsp.BandPass, 800},
			{dsp.BandPass, 3000},
			{dsp.HighPass, 8000},
		}
		var bufs []audio.Stereo
		var fl, fr []*dsp.Biquad
		for _, b := range bands {
			bufs = append(bufs, audio.NewStereo(n))
			fl = append(fl, dsp.NewBiquad(b.kind, b.freq, 0.8, 0, audio.SampleRate))
			fr = append(fr, dsp.NewBiquad(b.kind, b.freq, 0.8, 0, audio.SampleRate))
		}
		s.spBuf = append(s.spBuf, bufs)
		s.spFiltL = append(s.spFiltL, fl)
		s.spFiltR = append(s.spFiltR, fr)

		// Effect chain.
		chain := effects.StandardChain(d, audio.SampleRate)
		units := make([]effects.Effect, cfg.FXPerDeck)
		for j := 0; j < cfg.FXPerDeck; j++ {
			units[j] = chain[j]
			units[j].SetWet(0.25)
		}
		s.FX = append(s.FX, units)

		s.chanInputs = append(s.chanInputs, mixer.ChannelInput{
			Strip:  strip,
			Packet: s.deckMix[d],
		})

		s.deckMeters = append(s.deckMeters, mixer.NewVUMeter(0.95))
	}

	return s
}
