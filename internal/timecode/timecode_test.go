package timecode

import (
	"math"
	"testing"
	"testing/quick"

	"djstar/internal/audio"
)

// sharedSeq is built once; NewSequence is deliberately expensive.
var sharedSeq = NewSequence()

func TestLFSRPeriod(t *testing.T) {
	start := uint16(0xACE1)
	s := start
	for i := 0; i < 1<<16-1; i++ {
		s = lfsrNext(s)
		if s == 0 {
			t.Fatal("LFSR reached the all-zero lock-up state")
		}
		if s == start && i != 1<<16-2 {
			t.Fatalf("LFSR period %d, want 65535", i+1)
		}
	}
	if s != start {
		t.Fatal("LFSR did not return to seed after full period")
	}
}

func TestSequenceWindowsUnique(t *testing.T) {
	// A maximal LFSR guarantees every non-zero 16-bit window appears
	// exactly once per period.
	got := 0
	for _, v := range sharedSeq.lookup {
		if v != 0 {
			got++
		}
	}
	if got != 1<<16-1 || sharedSeq.lookup[0] != 0 {
		t.Fatalf("lookup has %d windows (all-zero window %d), want 65535 (collision?)", got, sharedSeq.lookup[0])
	}
}

func TestSequenceFindMatchesBits(t *testing.T) {
	f := func(startRaw uint16) bool {
		start := int(startRaw) % sharedSeq.Len()
		var win uint16
		for i := 0; i < PositionBits; i++ {
			win = win<<1 | uint16(sharedSeq.Bit(start+i))
		}
		pos, ok := sharedSeq.Find(win)
		return ok && int(pos) == (start+PositionBits-1)%sharedSeq.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSequenceBitWrapsNegative(t *testing.T) {
	if sharedSeq.Bit(-1) != sharedSeq.Bit(sharedSeq.Len()-1) {
		t.Fatal("negative index does not wrap")
	}
}

func TestGeneratorSeekWraps(t *testing.T) {
	g := NewGenerator(sharedSeq, audio.SampleRate)
	g.Seek(-10)
	if p := g.Position(); p < 0 || p >= float64(sharedSeq.Len()) {
		t.Fatalf("Seek(-10) position %v out of range", p)
	}
	g.Seek(float64(sharedSeq.Len()) + 5)
	if math.Abs(g.Position()-5) > 1e-9 {
		t.Fatalf("Seek wrap gave %v, want 5", g.Position())
	}
}

func TestGeneratorMismatchPanics(t *testing.T) {
	g := NewGenerator(sharedSeq, audio.SampleRate)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched channels")
		}
	}()
	g.Generate(make([]float64, 4), make([]float64, 8))
}

// runDVS streams packets from a generator into a decoder.
func runDVS(g *Generator, d *Decoder, packets int) {
	l := make([]float64, audio.PacketSize)
	r := make([]float64, audio.PacketSize)
	for i := 0; i < packets; i++ {
		g.Generate(l, r)
		d.Decode(l, r)
	}
}

func TestDecoderLocksAndTracksPosition(t *testing.T) {
	g := NewGenerator(sharedSeq, audio.SampleRate)
	d := NewDecoder(sharedSeq, audio.SampleRate)
	g.Seek(1234)
	runDVS(g, d, 30) // ~87 carrier cycles: ample for a 16-bit lock

	if !d.Locked() {
		t.Fatal("decoder did not lock")
	}
	pos, ok := d.Position()
	if !ok {
		t.Fatal("Position not valid despite lock")
	}
	// The generator has advanced; decoded position must be within a couple
	// of cycles of the true needle position.
	truePos := g.Position()
	diff := math.Abs(float64(pos) - truePos)
	if diff > 3 {
		t.Fatalf("decoded position %d vs true %v (diff %v)", pos, truePos, diff)
	}
}

func TestDecoderSpeedEstimate(t *testing.T) {
	for _, speed := range []float64{0.5, 1.0, 1.5} {
		g := NewGenerator(sharedSeq, audio.SampleRate)
		d := NewDecoder(sharedSeq, audio.SampleRate)
		g.SetSpeed(speed)
		runDVS(g, d, 60)
		if got := d.Speed(); math.Abs(got-speed)/speed > 0.1 {
			t.Fatalf("speed %v decoded as %v", speed, got)
		}
		if d.Direction() != 1 {
			t.Fatalf("forward playback decoded direction %d", d.Direction())
		}
	}
}

func TestDecoderReverseDirection(t *testing.T) {
	g := NewGenerator(sharedSeq, audio.SampleRate)
	d := NewDecoder(sharedSeq, audio.SampleRate)
	g.Seek(5000)
	g.SetSpeed(-1)
	runDVS(g, d, 60)
	if d.Direction() != -1 {
		t.Fatalf("reverse playback decoded direction %d", d.Direction())
	}
	if d.Locked() {
		t.Fatal("decoder claims position lock while scratching backwards")
	}
}

func TestDecoderRelockAfterScratch(t *testing.T) {
	g := NewGenerator(sharedSeq, audio.SampleRate)
	d := NewDecoder(sharedSeq, audio.SampleRate)
	runDVS(g, d, 30)
	if !d.Locked() {
		t.Fatal("no initial lock")
	}
	// Backwards scratch drops the lock...
	g.SetSpeed(-2)
	runDVS(g, d, 30)
	if d.Locked() {
		t.Fatal("lock survived reverse scratch")
	}
	// ...and forward play restores it.
	g.SetSpeed(1)
	runDVS(g, d, 40)
	if !d.Locked() {
		t.Fatal("decoder did not relock after scratch")
	}
	pos, _ := d.Position()
	if diff := math.Abs(float64(pos) - g.Position()); diff > 3 {
		t.Fatalf("relocked position off by %v cycles", diff)
	}
}

func TestDecoderHandlesLevelDrop(t *testing.T) {
	// A quieter signal (worn needle) must still decode: thresholds are
	// relative, not absolute.
	g := NewGenerator(sharedSeq, audio.SampleRate)
	d := NewDecoder(sharedSeq, audio.SampleRate)
	l := make([]float64, audio.PacketSize)
	r := make([]float64, audio.PacketSize)
	for i := 0; i < 60; i++ {
		g.Generate(l, r)
		for j := range l {
			l[j] *= 0.4
			r[j] *= 0.4
		}
		d.Decode(l, r)
	}
	if !d.Locked() {
		t.Fatal("decoder failed on attenuated signal")
	}
}

func TestDecoderMismatchPanics(t *testing.T) {
	d := NewDecoder(sharedSeq, audio.SampleRate)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched channels")
		}
	}()
	d.Decode(make([]float64, 4), make([]float64, 8))
}

func TestDecodeReportsCycleCount(t *testing.T) {
	g := NewGenerator(sharedSeq, audio.SampleRate)
	d := NewDecoder(sharedSeq, audio.SampleRate)
	l := make([]float64, audio.SampleRate) // 1 s
	r := make([]float64, audio.SampleRate)
	g.Generate(l, r)
	cycles := d.Decode(l, r)
	if math.Abs(float64(cycles)-CarrierHz) > 2 {
		t.Fatalf("observed %d cycles in 1 s, want ~%v", cycles, CarrierHz)
	}
}

func TestPositionSeconds(t *testing.T) {
	if s := PositionSeconds(1000); math.Abs(s-1) > 1e-12 {
		t.Fatalf("PositionSeconds(1000) = %v, want 1", s)
	}
}

func TestDecodeNoAlloc(t *testing.T) {
	g := NewGenerator(sharedSeq, audio.SampleRate)
	d := NewDecoder(sharedSeq, audio.SampleRate)
	l := make([]float64, audio.PacketSize)
	r := make([]float64, audio.PacketSize)
	g.Generate(l, r)
	allocs := testing.AllocsPerRun(100, func() { d.Decode(l, r) })
	if allocs != 0 {
		t.Fatalf("Decode allocates %v per packet", allocs)
	}
}

func TestDecoderSpeedGetterBeforeSignal(t *testing.T) {
	d := NewDecoder(sharedSeq, audio.SampleRate)
	if d.Speed() != 0 {
		t.Fatalf("initial speed = %v", d.Speed())
	}
}
