package main

import (
	"fmt"
	"runtime"
	"time"

	"djstar/internal/admission"
	"djstar/internal/audio"
	"djstar/internal/deck"
	"djstar/internal/dsp"
	"djstar/internal/effects"
	"djstar/internal/engine"
	"djstar/internal/fleet"
	"djstar/internal/graph"
	"djstar/internal/mixer"
	"djstar/internal/obs"
	"djstar/internal/rescon"
	"djstar/internal/sched"
	"djstar/internal/synth"
	"djstar/internal/timecode"
	"djstar/internal/timestretch"
)

// The layer suite: one probe per module, each timing calls into the
// module's public functions from outside and recording a span per
// batch. It runs in every traced run, after the traced workload, so the
// same per-layer numbers come out whichever workload was named. Probe
// lengths scale with params.probe.

// effectNames fixes the order and the set of effects.Registry entries
// the suite reports.
var effectNames = []string{
	"autopan", "beatmasher", "bitcrusher", "brake", "echo",
	"filtersweep", "flanger", "gater", "phaser", "reverb",
}

// allStrategies is every executor the dispatch probe runs.
var allStrategies = append(append([]string{}, sched.AllStrategies...), sched.NamePool)

// scaled returns full×probe, at least floor.
func scaled(p params, full, floor int) int {
	n := int(float64(full) * p.probe)
	if n < floor {
		n = floor
	}
	return n
}

// suite carries what every probe needs.
type suite struct {
	p      params
	tr     *tracer
	rec    *recorder
	parent int32
	tracks []*synth.Track
}

// runSuite runs every probe under one "layers" span.
func runSuite(p params, tr *tracer, rec *recorder) error {
	id, end := tr.begin("layers", -1)
	defer end(0)
	s := &suite{p: p, tr: tr, rec: rec, parent: id, tracks: makeTracks(p.seed, p.bars)}
	s.kernels()
	for _, probe := range []func() error{
		s.graph, s.dispatch, s.swap, s.engine, s.paper, s.admission, s.fleet, s.controlPlane,
	} {
		if err := probe(); err != nil {
			return err
		}
	}
	return nil
}

// batches is how many timed batches a loop probe makes.
func (s *suite) batches() int { return scaled(s.p, 15, 3) }

// loop times fn in batches of per calls, one span per batch, and
// returns the median ns per call. With noAlloc it also counts the
// heap allocations of the whole loop and fails the run on one per call.
func (s *suite) loop(name string, per int, noAlloc bool, fn func()) float64 {
	batches := s.batches()
	per = scaled(s.p, per, 8)
	for i := 0; i < per; i++ { // warm caches and lazy state
		fn()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	vals := make([]float64, batches)
	for b := range vals {
		_, end := s.tr.begin(name, s.parent)
		t0 := time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		d := time.Since(t0)
		end(int64(per))
		vals[b] = float64(d.Nanoseconds()) / float64(per)
	}
	runtime.ReadMemStats(&ms1)
	calls := uint64(batches * per)
	s.rec.attempted += int64(calls)
	if allocs := (ms1.Mallocs - ms0.Mallocs) / calls; noAlloc && allocs >= 1 {
		s.rec.fail(int64(calls), "%s: %d allocations per call, want 0", name, allocs)
	}
	return median(vals)
}

// timed runs fn once under a span and returns its duration in µs.
func (s *suite) timed(name string, fn func()) float64 {
	_, end := s.tr.begin(name, s.parent)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	end(1)
	s.rec.attempted++
	return float64(d.Nanoseconds()) / 1e3
}

// once times reps single calls of fn and returns the durations in µs.
func (s *suite) once(name string, reps int, fn func() error) ([]float64, error) {
	out := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		var err error
		out = append(out, s.timed(name, func() { err = fn() }))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	return out, nil
}

// kernels times the DSP building blocks on one 128-sample packet. Each
// call first restores the packet from a fixed source, so in-place
// kernels never decay their input into denormals; the ~1 KB copy is
// part of every figure.
func (s *suite) kernels() {
	const hz = audio.SampleRate
	n := audio.PacketSize
	src := synth.WhiteNoise(n, 0.5, s.p.seed)
	srcR := synth.WhiteNoise(n, 0.5, s.p.seed+1)
	buf := audio.NewBuffer(n)
	st := audio.NewStereo(n)
	fillMono := func() { copy(buf, src) }
	fillStereo := func() { copy(st.L, src); copy(st.R, srcR) }
	put := func(name string, ns float64) { s.rec.put(name, ns, "ns", s.batches()) }

	bq := dsp.NewBiquad(dsp.LowPass, 1000, 0.8, 0, hz)
	put("dsp.biquad_ns_per_packet", s.loop("dsp.biquad", 4000, true, func() { fillMono(); bq.Process(buf) }))
	eq := dsp.NewThreeBandEQ(hz)
	eq.SetGains(3, -2, 1)
	put("dsp.eq3_ns_per_packet", s.loop("dsp.eq3", 2000, true, func() { fillMono(); eq.Process(buf) }))
	fft, im := dsp.MustFFT(n), audio.NewBuffer(n)
	put("dsp.fft_ns", s.loop("dsp.fft", 2000, true, func() { fillMono(); im.Zero(); fft.Transform(buf, im) }))
	lim := dsp.NewLimiter(0.4, 32, 2048, hz)
	put("dsp.limiter_ns_per_packet", s.loop("dsp.limiter", 4000, true, func() { fillMono(); lim.Process(buf) }))
	long := synth.WhiteNoise(4*n, 0.5, s.p.seed+2)
	put("dsp.resample_cubic_ns_per_packet", s.loop("dsp.resample_cubic", 2000, true, func() { dsp.CubicResample(buf, long, 1.5, 1.03) }))

	for _, name := range effectNames {
		fx := effects.Registry[name](hz)
		fx.SetWet(0.25)
		put("effects."+name+"_ns_per_packet", s.loop("effects."+name, 1000, true, func() { fillStereo(); fx.Process(st) }))
	}

	// The offline stretcher allocates its output, so no allocation gate.
	const clipPackets = 32
	clip := synth.WhiteNoise(clipPackets*n, 0.5, s.p.seed+3)
	ws, err := timestretch.NewWSOLA(512, 1.03)
	if err != nil {
		panic(err) // fixed arguments
	}
	put("timestretch.ns_per_packet", s.loop("timestretch.wsola", 20, false, func() { ws.Stretch(clip) })/clipPackets)

	// Decode a ring of pre-generated control packets.
	seq := timecode.NewSequence()
	gen, dec := timecode.NewGenerator(seq, hz), timecode.NewDecoder(seq, hz)
	ring := make([]audio.Stereo, 256)
	for i := range ring {
		ring[i] = audio.NewStereo(n)
		gen.Generate(ring[i].L, ring[i].R)
	}
	at := 0
	put("timecode.decode_ns_per_packet", s.loop("timecode.decode", 2000, true, func() {
		dec.Decode(ring[at].L, ring[at].R)
		at = (at + 1) % len(ring)
	}))

	// One mixer pass: a channel strip, the four-channel sum, the output stage.
	strip := mixer.NewChannelStrip("probe", hz)
	mx, out := mixer.NewMixer(), mixer.NewOutputStage(0.98, hz)
	master, empty := audio.NewStereo(n), audio.Stereo{}
	chans := make([]mixer.ChannelInput, 4)
	for i := range chans {
		chans[i] = mixer.ChannelInput{Strip: strip, Packet: st}
	}
	put("mixer.ns_per_packet", s.loop("mixer.pass", 1000, true, func() {
		fillStereo()
		strip.Process(st)
		mx.MixInto(master, chans, empty)
		out.Process(master)
	}))

	// The GP stage's kernel: a key-locked deck reading its next packet.
	dk := deck.New("probe", hz)
	dk.Load(s.tracks[1])
	dk.SetLoop(0, float64(s.tracks[1].Len()))
	dk.SetTempo(0.97)
	dk.SetKeyLock(true)
	dk.Play()
	put("deck.read_ns_per_packet", s.loop("deck.read", 1000, true, func() { dk.ReadPacket(st) }))
}

// graph times building, compiling, fusing and editing the 67-node graph.
func (s *suite) graph() error {
	reps := scaled(s.p, 30, 3)
	cfg := graphConfig(s.tracks, 0, graph.Calibration{})
	var (
		sess *graph.Session
		g    *graph.Graph
		plan *graph.Plan
		err  error
	)
	build, err := s.once("graph.build", reps, func() error { sess, g, err = graph.BuildDJStar(cfg); return err })
	if err != nil {
		return err
	}
	compile, err := s.once("graph.compile", reps, func() error { plan, err = g.Compile(); return err })
	if err != nil {
		return err
	}
	costs := rescon.PaperCostsUS(plan)
	fuse, err := s.once("graph.fuse", reps, func() error { _, err := graph.Fuse(plan, costs, graph.FuseOptions{}); return err })
	if err != nil {
		return err
	}
	edit, err := s.once("graph.apply_edit", reps, func() error {
		es, err := sess.BuildPatch(g, "insert-delay:B:2")
		if err != nil {
			return err
		}
		_, _, _, err = g.Apply(es)
		return err
	})
	if err != nil {
		return err
	}
	s.rec.put("graph.build_us", median(build), "us", reps)
	s.rec.put("graph.compile_us", median(compile), "us", reps)
	s.rec.put("graph.fuse_us", median(fuse), "us", reps)
	s.rec.put("graph.apply_edit_us", median(edit), "us", reps)
	return nil
}

// noopPlan compiles a seeded 67-node random DAG whose nodes do nothing,
// so Execute costs dispatch alone.
func noopPlan(seed uint64) (*graph.Graph, *graph.Plan, error) {
	g, _ := graph.RandomDAG(graph.RandomSpec{Nodes: 67, EdgeProb: 0.08, MaxDeps: 3, Seed: seed})
	for _, n := range g.Nodes() {
		n.Run = func() {}
	}
	plan, err := g.Compile()
	return g, plan, err
}

// newScheduler builds one executor of the given strategy over plan; the
// returned close releases it and, for pool, the pool behind it.
func newScheduler(name string, plan *graph.Plan, threads int) (sched.Scheduler, func(), error) {
	if name != sched.NamePool {
		sc, err := sched.New(name, plan, sched.Options{Threads: threads})
		if err != nil {
			return nil, nil, err
		}
		return sc, sc.Close, nil
	}
	pool, err := sched.NewPool(threads-1, 1)
	if err != nil {
		return nil, nil, err
	}
	ps, err := pool.Attach(plan, sched.Options{})
	if err != nil {
		pool.Close()
		return nil, nil, err
	}
	return ps, func() { ps.Close(); pool.Close() }, nil
}

// dispatch times Execute on the no-op DAG for every strategy.
func (s *suite) dispatch() error {
	_, plan, err := noopPlan(s.p.seed)
	if err != nil {
		return err
	}
	execs := scaled(s.p, 4000, 50)
	for _, name := range allStrategies {
		sc, closeFn, err := newScheduler(name, plan, s.p.n)
		if err != nil {
			return fmt.Errorf("sched %s: %w", name, err)
		}
		for i := 0; i < execs/10; i++ {
			sc.Execute()
		}
		us := make([]float64, execs)
		_, end := s.tr.begin("sched."+name+".execute", s.parent)
		for i := range us {
			t0 := time.Now()
			sc.Execute()
			us[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		}
		end(int64(execs))
		closeFn()
		s.rec.attempted += int64(execs)
		asc := sorted(us)
		s.rec.put("sched."+name+".dispatch_ns_per_node", pct(asc, 0.5)*1e3/float64(plan.Len()), "ns", execs)
		s.rec.put("sched."+name+".execute_p99_us", pct(asc, 0.99), "us", execs)
	}
	return nil
}

// swap times staging and adopting a recompiled plan on busy and pool.
func (s *suite) swap() error {
	g, planA, err := noopPlan(s.p.seed)
	if err != nil {
		return err
	}
	planB, err := g.Compile()
	if err != nil {
		return err
	}
	var stage, adopt []float64
	on := func(name string) error {
		sc, closeFn, err := newScheduler(name, planA, s.p.n)
		if err != nil {
			return err
		}
		defer closeFn()
		for i, next := 0, planB; i < scaled(s.p, 100, 4); i++ {
			stage = append(stage, s.timed("sched.stage_swap", func() { err = sc.StageSwap(sched.Swap{Plan: next}) }))
			if err != nil {
				return fmt.Errorf("%s StageSwap: %w", name, err)
			}
			adopted := false
			adopt = append(adopt, s.timed("sched.adopt_swap", func() { adopted = sc.AdoptStaged() }))
			if !adopted {
				return fmt.Errorf("%s did not adopt the staged plan", name)
			}
			sc.Execute()
			if next = planA; i%2 == 1 {
				next = planB
			}
		}
		return nil
	}
	for _, name := range []string{sched.NameBusyWait, sched.NamePool} {
		if err := on(name); err != nil {
			return err
		}
	}
	s.rec.put("sched.stage_swap_us", median(stage), "us", len(stage))
	s.rec.put("sched.adopt_swap_us", median(adopt), "us", len(adopt))
	return nil
}

// abEngine is one side of an engine A/B: a dsp-seq engine with some
// switch flipped.
type abEngine struct {
	env *engineEnv
	us  []float64
}

// engine probes the engine module on the dsp-seq configuration: the
// cost of New, the accounting spine, Snapshot, and what obs and
// telemetry add to a cycle.
func (s *suite) engine() error {
	p := s.p
	p.warm, p.hashed = scaled(p, 500, 20), 0
	gcfg := graphConfig(s.tracks, 0, graph.Calibration{})
	build := func(cfg engine.Config, hooked bool) (*engineEnv, error) {
		cfg.Strategy = sched.NameSequential
		env, err := newEngineEnv(p, nil, -1, cfg, gcfg, hooked)
		if err != nil {
			return nil, err
		}
		env.warm(p, nil, -1)
		return env, nil
	}

	var news []float64
	for i := 0; i < scaled(p, 10, 2); i++ {
		var eng *engine.Engine
		var err error
		news = append(news, s.timed("engine.new", func() {
			eng, err = engine.New(engine.Config{Strategy: sched.NameSequential, Threads: p.n, Graph: gcfg})
		}))
		if err != nil {
			return err
		}
		eng.Close()
	}
	s.rec.put("engine.new_ms", median(news)/1e3, "ms", len(news))

	// Spine: bench-timed Cycle minus the APC the engine reports for it.
	hooked, err := build(engine.Config{}, true)
	if err != nil {
		return err
	}
	defer hooked.eng.Close()
	_, end := s.tr.begin("engine.spine", s.parent)
	run := timeCycles(hooked.eng, p.seconds, scaled(p, 3000, 50))
	end(int64(len(run.durUS)))
	infos := hooked.log.info[:len(run.durUS)]
	spine := make([]float64, len(infos))
	for i, ci := range infos {
		spine[i] = run.durUS[i]*1e3 - ci.APCMS*1e6
	}
	s.rec.attempted += int64(len(spine))
	s.rec.put("engine.spine_ns_per_cycle", median(spine), "ns", len(spine))
	snaps, _ := s.once("obs.snapshot", scaled(p, 50, 3), func() error { hooked.eng.Snapshot(); return nil })
	s.rec.put("obs.snapshot_us", median(snaps), "us", len(snaps))

	// A/B in interleaved rounds so drift hits all three sides alike.
	var sides [3]abEngine
	for i, cfg := range []engine.Config{{}, {Obs: engine.ObsOptions{Disable: true}}, {Telemetry: engine.TelemetryOptions{Disable: true}}} {
		env, err := build(cfg, false)
		if err != nil {
			return err
		}
		defer env.eng.Close()
		sides[i].env = env
	}
	_, end = s.tr.begin("engine.overhead_ab", s.parent)
	for round := 0; round < 5; round++ {
		for i := range sides {
			sides[i].us = append(sides[i].us, timeCycles(sides[i].env.eng, p.seconds, scaled(p, 600, 20)).durUS...)
		}
	}
	end(int64(len(sides[0].us)))
	s.rec.attempted += int64(3 * len(sides[0].us))
	base := median(sides[0].us)
	s.rec.put("obs.overhead_ratio", base/median(sides[1].us), "ratio", len(sides[0].us))
	s.rec.put("telemetry.overhead_ratio", base/median(sides[2].us), "ratio", len(sides[0].us))
	return nil
}

// paper runs the Table I cell at short length — seq and busy at paper
// scale — for the schedule-quality figures: speedup, efficiency against
// the critical-path bound, and the analytical bounds over measured node
// costs.
func (s *suite) paper() error {
	p := s.p
	p.warm, p.hashed = scaled(p, 300, 10), 0
	cycles := scaled(p, 1200, 30)
	gcfg := graphConfig(s.tracks, 1, graph.Calibrate())
	graphUS := func(strategy string) ([]float64, *engineEnv, error) {
		env, err := newEngineEnv(p, nil, -1, engine.Config{Strategy: strategy}, gcfg, true)
		if err != nil {
			return nil, nil, err
		}
		env.warm(p, nil, -1)
		_, end := s.tr.begin("paper."+strategy, s.parent)
		run := timeCycles(env.eng, p.seconds, cycles)
		end(int64(len(run.durUS)))
		infos := env.log.info[:len(run.durUS)]
		us := make([]float64, len(infos))
		for i, ci := range infos {
			us[i] = ci.GraphMS * 1e3
		}
		s.rec.attempted += int64(len(us))
		return us, env, nil
	}
	seqUS, seqEnv, err := graphUS(sched.NameSequential)
	if err != nil {
		return err
	}
	seqEnv.eng.Close()
	busyUS, busyEnv, err := graphUS(sched.NameBusyWait)
	if err != nil {
		return err
	}
	defer busyEnv.eng.Close()

	busyAsc := sorted(busyUS)
	busyP50 := pct(busyAsc, 0.5)
	plan, means := busyEnv.eng.Plan(), busyEnv.eng.Collector().NodeMeansUS()
	s.rec.put("sched.busy.speedup", median(seqUS)/busyP50, "ratio", len(busyUS))
	s.rec.put("sched.busy.efficiency", obs.CriticalPath(plan, means).Efficiency(busyP50, p.n), "ratio", len(busyUS))

	model, err := rescon.FromPlan(plan, means)
	if err != nil {
		return err
	}
	cp := model.CriticalPathUS()
	s.rec.put("rescon.cp_us", cp, "us", len(means))
	s.rec.put("rescon.graham_bound_us", rescon.GrahamBound(model.TotalWork(), cp, p.n), "us", len(means))

	// BaseUS < 0: bound the graph alone, to hold against the graph stage.
	rep, err := admission.Analyze(plan, means, sched.NameBusyWait, p.n, "measured", admission.Config{BaseUS: -1})
	if err != nil {
		return err
	}
	s.rec.put("admission.bound_over_measured", rep.BoundUS/pct(busyAsc, 0.99), "ratio", len(busyUS))
	return nil
}

// admission times the analysis behind every placement decision.
func (s *suite) admission() error {
	_, g, err := graph.BuildDJStar(graphConfig(s.tracks, 0, graph.Calibration{}))
	if err != nil {
		return err
	}
	plan, err := g.Compile()
	if err != nil {
		return err
	}
	costs := rescon.PaperCostsUS(plan)
	var rep *admission.Report
	analyze, err := s.once("admission.analyze", scaled(s.p, 50, 3), func() error {
		rep, err = admission.Analyze(plan, costs, sched.NamePool, s.p.n, "static", admission.Config{})
		return err
	})
	if err != nil {
		return err
	}
	s.rec.put("admission.analyze_us", median(analyze), "us", len(analyze))

	// Probe a controller that already hosts eight quarter-cost sessions.
	small := *rep
	small.TotalWorkUS, small.CritPathUS, small.BaseUS = rep.TotalWorkUS/4, rep.CritPathUS/4, rep.BaseUS/4
	ctl := admission.NewController(s.p.n, admission.Config{})
	for i := 0; i < 8; i++ {
		_ = ctl.TryAdmit(fmt.Sprintf("s%d", i), &small) // a refusal only leaves the probe fewer sessions to sum
	}
	ns := s.loop("admission.probe", 200, false, func() { ctl.Probe(&small) })
	s.rec.put("admission.probe_us", ns/1e3, "us", s.batches())
	return nil
}

// fleetConfig is a default fleet of spin-free sessions over the
// suite's tracks.
func (s *suite) fleetConfig() fleet.Config {
	var cfg fleet.Config
	cfg.Engine.Graph = graphConfig(s.tracks, 0, graph.Calibration{})
	return cfg
}

// fleet times session add, remove and shard drain on a side fleet, and
// checks that a drain loses no cycle.
func (s *suite) fleet() error {
	p := s.p
	p.warm = 0
	env, err := newFleetEnv(p, nil, -1, s.fleetConfig(), 0, false)
	if err != nil {
		return err
	}
	defer env.close()
	sessions := scaled(p, 8, 2)
	adds, err := s.once("fleet.add_session", sessions, func() error {
		l := newCycleLog(logCapacity(p, true), false, false)
		sess, _, err := env.f.AddSession(engine.SessionSpec{Hooks: engine.Hooks{OnCycle: l.hook}})
		env.standing, env.logs = append(env.standing, sess), append(env.logs, l)
		return err
	})
	if err != nil {
		return err
	}
	s.rec.put("fleet.add_session_ms", median(adds)/1e3, "ms", len(adds))

	shard, failed := 0, 0
	drains, err := s.once("fleet.drain", scaled(p, 4, 2), func() error {
		time.Sleep(20 * time.Millisecond) // let the sessions cycle on their current shards
		res, err := env.f.Drain(shard)
		failed += res.Failed
		if err == nil {
			err = env.f.Undrain(shard)
		}
		shard = 1 - shard
		return err
	})
	if err != nil {
		return err
	}
	s.rec.put("fleet.drain_ms", median(drains)/1e3, "ms", len(drains))

	at := 0
	removes, err := s.once("fleet.remove_session", sessions, func() error {
		at++
		return env.f.RemoveSession(env.standing[at-1].ID())
	})
	if err != nil {
		return err
	}
	s.rec.put("fleet.remove_session_ms", median(removes)/1e3, "ms", len(removes))

	lost := int64(failed)
	for _, l := range env.logs { // drivers stopped by RemoveSession: logs are quiescent
		lost += l.gaps
	}
	s.rec.fail(lost, "fleet drain lost or doubled %d cycles", lost)
	s.rec.put("fleet.drain_cycles_lost", float64(lost), "count", len(drains))
	return nil
}

// controlPlane runs fleet-churn at short length for the client-side
// route latencies, the generator's lateness and the pacing of a
// standing session.
func (s *suite) controlPlane() error {
	p := s.p
	p.trace = true // stamps for the jitter
	p.warm = scaled(p, 200, 10)
	p.seconds = s.p.seconds / 3
	if p.probe >= 1 && p.seconds < 4 {
		p.seconds = 4
	}
	env, err := newFleetEnv(p, nil, -1, s.fleetConfig(), churnStanding*p.n, true)
	if err != nil {
		return err
	}
	if err := env.warm(p, nil, -1); err != nil {
		return err
	}
	id, end := s.tr.begin("fleet-churn.short", s.parent)
	from := env.marks()
	res := runLoadgen(p, s.tr, id, env)
	to := env.marks()
	end(int64(len(res.reqs)))
	env.close()
	res.count(s.rec)
	res.emit(s.rec)

	var jitter []float64
	cycles := int64(0)
	for i, l := range env.logs {
		s.rec.fail(l.gaps, "standing session %d: %d cycle numbers out of sequence", i, l.gaps)
		for k := from[i] + 1; k < to[i] && k < int64(len(l.stamps)); k++ {
			dev := float64(l.stamps[k]-l.stamps[k-1])/1e3 - engine.DeadlineMS*1e3
			if dev < 0 {
				dev = -dev
			}
			jitter = append(jitter, dev)
		}
		cycles += to[i] - from[i]
	}
	asc := sorted(jitter)
	s.rec.put("fleet.pace_jitter_p50_us", pct(asc, 0.5), "us", len(asc))
	s.rec.put("fleet.pace_jitter_p99_us", pct(asc, 0.99), "us", len(asc))
	s.rec.put("fleet.cycles_per_session_s", float64(cycles)/p.seconds/float64(len(env.logs)), "1/s", int(cycles))
	return nil
}
