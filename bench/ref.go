package main

import "time"

// The reference spin. The reviewer machine is a shared VM: for minutes
// at a time a neighbour's memory traffic makes pure-DSP cycles 30–80 %
// slower, and the clock itself steps by a few percent. A compute-bound
// timing taken now and the same timing taken an hour later differ by
// more than any bound worth setting. Every compute-bound end-to-end
// timing is therefore reported at reference speed: a fixed kernel of the
// benchmark's own — never code of the program under test, so optimising
// the program cannot move it — runs on the measuring thread after every
// refEvery-th cycle, and each cycle's time is multiplied by refNominalNS
// over the mean of the two spins that bracket it. A timing at reference
// speed reads as microseconds on a host where the kernel takes exactly
// refNominalNS.
//
// The kernel is shaped like the work it stands in for. A DSP cycle
// streams a few kilobytes out of megabytes of tracks and delay lines it
// last touched a second ago, then does arithmetic on them; when the host
// is disturbed it slows by about three fifths of what a pure strided read
// of 4 MB slows by, and a pure dependency chain does not slow at all. So
// the kernel spends three fifths of its undisturbed time on such a read
// and two fifths on such a chain. Over a recorded quarter of an hour in
// which the raw median APC of consecutive 20 s runs of dsp-seq ranged
// from 108 to 196 µs, the median at reference speed ranged from 108 to
// 116 µs.

// refEvery is how many cycles separate two reference spins.
const refEvery = 32

// refNominalNS is what refSpin takes on the reviewer VM when nothing
// disturbs it.
const refNominalNS = 39000

// refBuf is the 4 MB the kernel reads one cache line at a time. It is
// only ever read, so every measuring thread shares it.
var refBuf = make([]float64, 512<<10)

var (
	refSinkF float64
	refSinkU uint64
)

// refSpin runs the reference kernel once and returns the time it took
// in ns.
func refSpin() int64 {
	t := time.Now()
	s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
	b := refBuf
	for i := 0; i+32 <= len(b); i += 32 { // one float64 per 64-byte line
		s0 += b[i]
		s1 += b[i+8]
		s2 += b[i+16]
		s3 += b[i+24]
	}
	x, y := 0.3, 0.7
	var a uint64 = 0x9E3779B97F4A7C15
	for i := 0; i < 3400; i++ {
		x = x*0.999 + y*0.001
		y = y*0.998 + x*0.002
		a ^= a << 13
		a ^= a >> 7
		a ^= a << 17
	}
	refSinkF, refSinkU = s0+s1+s2+s3+x+y, a
	return int64(time.Since(t))
}

// refSpins runs n reference spins back to back.
func refSpins(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(refSpin())
	}
	return out
}

// blockFactor is refFactor for cycle i of a loop whose spin b follows
// cycle b·refEvery: the two spins that bracket the cycle's block decide
// (one, where the loop ended before the second).
func blockFactor(spinsNS []float64, i int) float64 {
	b := i / refEvery
	ns := spinsNS[b]
	if b+1 < len(spinsNS) {
		ns = (ns + spinsNS[b+1]) / 2
	}
	return refNominalNS / ns
}

// refFactor is what a timing taken alongside these spins is multiplied
// by to bring it to reference speed (1 when there are none).
func refFactor(spinsNS []float64) float64 {
	m := median(spinsNS)
	if m <= 0 {
		return 1
	}
	return refNominalNS / m
}
