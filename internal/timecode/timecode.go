// Package timecode simulates and decodes DVS (digital vinyl system)
// control signals.
//
// DJ Star interprets external control signals from timecode vinyl; the
// paper's profile attributes 16 % of APC run time to this "timecode
// decoder". Since we have no turntable hardware, this package provides
// both sides: a Generator that synthesizes the control signal a turntable
// would produce (the hardware substitution) and a Decoder that recovers
// playback speed, direction and absolute position from it (the subsystem
// under test, executed every cycle by the engine's TP stage).
//
// Signal design, modeled on commercial DVS media: a quadrature sine
// carrier (left = sin, right = cos) whose instantaneous frequency encodes
// playback speed and whose channel ordering encodes direction; each
// carrier cycle is amplitude-modulated with one bit of a maximal-length
// LFSR sequence, so any window of PositionBits consecutive bits uniquely
// identifies the absolute position on the record.
package timecode

import (
	"fmt"
	"math"
	"sync/atomic"

	"djstar/internal/dsp"
)

const (
	// CarrierHz is the nominal carrier frequency at unity playback speed.
	CarrierHz = 1000.0

	// PositionBits is the LFSR window length; 16 bits give 65535 uniquely
	// addressable carrier cycles (~65 s of "vinyl" at unity speed).
	PositionBits = 16

	// bitHigh and bitLow are the cycle amplitudes for 1 and 0 bits.
	bitHigh = 1.0
	bitLow  = 0.55
)

// lfsrNext advances a 16-bit Fibonacci LFSR with taps 16,15,13,4
// (primitive polynomial x^16+x^15+x^13+x^4+1, period 65535).
func lfsrNext(s uint16) uint16 {
	bit := ((s >> 0) ^ (s >> 1) ^ (s >> 3) ^ (s >> 12)) & 1
	return (s >> 1) | (bit << 15)
}

// Sequence holds the precomputed LFSR bitstream and the window → index
// lookup used to resolve absolute positions.
type Sequence struct {
	bits []uint8 // bit per carrier cycle, length 65535
	// lookup is indexed by a window of PositionBits bits and holds the
	// cycle index + 1; 0 marks the all-zero window, which never occurs.
	// An array, so a uint16 index needs no bounds check.
	lookup *[1 << PositionBits]uint32
}

// NewSequence builds the canonical position sequence. It is deterministic
// and somewhat expensive (65535 entries), so callers typically share one
// instance across decks.
func NewSequence() *Sequence {
	const period = 1<<PositionBits - 1
	s := &Sequence{
		bits:   make([]uint8, period),
		lookup: new([1 << PositionBits]uint32),
	}
	state := uint16(0xACE1)
	for i := 0; i < period; i++ {
		s.bits[i] = uint8(state & 1)
		state = lfsrNext(state)
	}
	// Window ending at cycle i (inclusive) maps to position i.
	var win uint16
	for i := 0; i < period+PositionBits; i++ {
		bit := s.bits[i%period]
		win = win<<1 | uint16(bit)
		if i >= PositionBits-1 {
			s.lookup[win] = uint32(i%period) + 1
		}
	}
	return s
}

// Len returns the number of cycles in the sequence.
func (s *Sequence) Len() int { return len(s.bits) }

// Bit returns the bit for carrier cycle i (wrapping).
func (s *Sequence) Bit(i int) uint8 {
	n := len(s.bits)
	i %= n
	if i < 0 {
		i += n
	}
	return s.bits[i]
}

// Find resolves a window of the most recent PositionBits bits (oldest bit
// in the highest position) to the cycle index of its last bit. The second
// return is false if the window does not occur, which for a maximal LFSR
// only happens for the all-zero window.
func (s *Sequence) Find(window uint16) (uint32, bool) {
	if v := s.lookup[window]; v != 0 {
		return v - 1, true
	}
	return 0, false
}

// Generator synthesizes the stereo control signal of a turntable playing
// timecode vinyl at a variable speed.
type Generator struct {
	seq   *Sequence
	rate  int
	phase float64 // carrier phase in cycles (absolute record position)
	// speed is the playback speed (negative plays backwards) as
	// math.Float64bits: a control thread sets it while Generate runs.
	speed atomic.Uint64
}

// NewGenerator returns a generator at unity speed positioned at cycle 0.
func NewGenerator(seq *Sequence, rate int) *Generator {
	g := &Generator{seq: seq, rate: rate}
	g.SetSpeed(1)
	return g
}

// SetSpeed sets the playback speed (1 = normal, 0 = stopped, negative =
// reverse scratch). Safe to call while another goroutine generates.
func (g *Generator) SetSpeed(v float64) { g.speed.Store(math.Float64bits(v)) }

// Speed returns the current playback speed.
func (g *Generator) Speed() float64 { return math.Float64frombits(g.speed.Load()) }

// Position returns the absolute record position in carrier cycles.
func (g *Generator) Position() float64 { return g.phase }

// Seek jumps the needle to the given absolute cycle position.
func (g *Generator) Seek(cycles float64) {
	n := float64(g.seq.Len())
	g.phase = math.Mod(cycles, n)
	if g.phase < 0 {
		g.phase += n
	}
}

// Generate fills the stereo buffers l and r (equal length) with the next
// packet of control signal and advances the needle.
func (g *Generator) Generate(l, r []float64) {
	if len(l) != len(r) {
		panic(fmt.Sprintf("timecode: channel length mismatch %d != %d", len(l), len(r)))
	}
	inc := CarrierHz / float64(g.rate) * g.Speed()
	bits := g.seq.bits
	n := float64(len(bits))
	phase := g.phase
	// Both carriers come from one rotor seeded at the needle, so the
	// per-sample work is a complex multiply; the needle itself advances
	// exactly as it would without it and reseeds the rotor every packet
	// (DESIGN.md §31). Wrapping by n, a whole number of cycles, leaves the
	// angle where it is.
	rot := dsp.NewRotor(phase, inc)
	for i := range l {
		// For a needle inside the sequence the conversion truncates to
		// Floor(phase), the cycle index. Bit's wrap-around arithmetic is
		// for the rest: a wrap that rounded to exactly n, or a speed so
		// absurd that one wrap per sample does not bring the needle back.
		var bit uint8
		if cycle := int(phase); phase >= 0 && cycle < len(bits) {
			bit = bits[cycle]
		} else {
			bit = g.seq.Bit(int(math.Floor(phase)))
		}
		amp := bitLow
		if bit == 1 {
			amp = bitHigh
		}
		sin, cos := rot.Next()
		l[i] = amp * sin
		r[i] = amp * cos
		phase += inc
		if phase >= n {
			phase -= n
		} else if phase < 0 {
			phase += n
		}
	}
	g.phase = phase
}

// Decoder recovers speed, direction and absolute position from the control
// signal, packet by packet. It is stateful across packets: carrier cycles
// usually straddle packet boundaries.
type Decoder struct {
	seq  *Sequence
	rate int

	prevL      float64
	havePrev   bool
	cyclePeak  float64 // max |L| seen within the current carrier cycle
	cycleLen   int     // samples since the last upward zero crossing
	recentPeak float64 // slow-decaying amplitude reference for bit slicing

	window   uint16 // shift register of decoded bits
	bitsIn   int    // bits accumulated since last sync loss
	position uint32 // last resolved absolute position (cycle index)
	locked   bool

	speedEMA float64 // smoothed speed estimate
	dir      int     // +1 forward, -1 reverse, 0 unknown
	samples  int     // total samples consumed (for diagnostics)
}

// NewDecoder returns a decoder for the given shared sequence and rate.
func NewDecoder(seq *Sequence, rate int) *Decoder {
	return &Decoder{seq: seq, rate: rate}
}

// Reset drops all decoder state (lock, speed estimate, bit register).
func (d *Decoder) Reset() {
	*d = Decoder{seq: d.seq, rate: d.rate}
}

// Locked reports whether the decoder currently has an absolute position
// fix.
func (d *Decoder) Locked() bool { return d.locked }

// Position returns the last resolved absolute position in carrier cycles
// and whether it is valid.
func (d *Decoder) Position() (uint32, bool) { return d.position, d.locked }

// Speed returns the smoothed playback speed estimate (1 = unity). The
// estimate is unsigned magnitude; combine with Direction for sign.
func (d *Decoder) Speed() float64 { return d.speedEMA }

// Direction returns +1 for forward, -1 for reverse, 0 while unknown.
func (d *Decoder) Direction() int { return d.dir }

// Decode consumes one stereo control packet. It returns the number of
// complete carrier cycles observed in the packet.
func (d *Decoder) Decode(l, r []float64) int {
	if len(l) != len(r) {
		panic(fmt.Sprintf("timecode: channel length mismatch %d != %d", len(l), len(r)))
	}
	cycles := 0
	for i := range l {
		s := l[i]
		d.samples++
		d.cycleLen++
		if a := math.Abs(s); a > d.cyclePeak {
			d.cyclePeak = a
		}
		if d.havePrev && d.prevL < 0 && s >= 0 {
			// Upward zero crossing: one carrier cycle completed.
			cycles++
			d.completeCycle(r[i])
		}
		d.prevL = s
		d.havePrev = true
	}
	return cycles
}

// completeCycle processes the cycle that just ended; rSample is the right
// channel at the crossing instant, whose sign encodes direction.
func (d *Decoder) completeCycle(rSample float64) {
	// Direction: at an upward L (sin) zero crossing, R (cos) is positive
	// when playing forward and negative in reverse.
	if rSample > 0 {
		d.dir = 1
	} else if rSample < 0 {
		d.dir = -1
	}

	// Speed: nominal cycle length is rate/CarrierHz samples.
	if d.cycleLen > 0 {
		nominal := float64(d.rate) / CarrierHz
		inst := nominal / float64(d.cycleLen)
		if d.speedEMA == 0 {
			d.speedEMA = inst
		} else {
			d.speedEMA += 0.25 * (inst - d.speedEMA)
		}
	}

	// Bit slicing: compare the cycle's peak against the running amplitude
	// reference. A high cycle refreshes the reference.
	if d.cyclePeak > d.recentPeak {
		d.recentPeak = d.cyclePeak
	} else {
		d.recentPeak *= 0.999 // slow decay tracks level changes
	}
	threshold := d.recentPeak * (bitLow + (bitHigh-bitLow)/2)
	bit := uint16(0)
	if d.cyclePeak > threshold {
		bit = 1
	}
	d.window = d.window<<1 | bit
	d.bitsIn++
	d.cyclePeak = 0
	d.cycleLen = 0

	// Position fix: resolve once the register holds a full window. Only
	// meaningful when playing forward; scratching backwards reverses the
	// bit order, so we drop lock and wait for forward motion.
	if d.dir < 0 {
		d.locked = false
		d.bitsIn = 0
		return
	}
	if d.bitsIn >= PositionBits {
		if pos, ok := d.seq.Find(d.window); ok {
			d.position = pos
			d.locked = true
		} else {
			d.locked = false
		}
	}
}

// PositionSeconds converts a cycle position to seconds of record time at
// unity speed.
func PositionSeconds(cycles uint32) float64 {
	return float64(cycles) / CarrierHz
}
