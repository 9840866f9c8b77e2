package dsp

import "fmt"

// A lone transposed-DF2 section is bound by its dependency chain, not by
// arithmetic: sample i+1 cannot start until z1 from sample i is known, and
// that is four dependent floating-point operations away, so one Process
// call retires a sample every ~8 cycles with the multipliers mostly idle.
// The kernels below put several independent recurrences — the two
// channels of a stereo packet, the stages of a series cascade — into one
// loop iteration with every state variable in a local, which lets the
// core overlap the chains. Each section still performs exactly the
// operations of Process in the same order on the same inputs (stage k
// reads stage k-1's output for the same sample) and settles its state the
// same way when the block ends, so the results are bit-identical to
// running the sections one pass after another.

// tick advances the section by one sample. The caller carries the state
// in locals across the loop and stores it back once at the end; going
// through f.z1/f.z2 per sample would put a store-to-load round trip on
// the chain.
func (f *Biquad) tick(x, z1, z2 float64) (y, nz1, nz2 float64) {
	y = f.b0*x + z1
	return y, f.b1*x - f.a1*y + z2, f.b2*x - f.a2*y
}

// checkPair panics unless the four channel slices have one length.
func checkPair(dstL, dstR, srcL, srcR []float64) {
	if n := len(srcL); len(srcR) != n || len(dstL) != n || len(dstR) != n {
		panic(fmt.Sprintf("dsp: channel length mismatch src %d/%d dst %d/%d",
			len(srcL), len(srcR), len(dstL), len(dstR)))
	}
}

// ProcessPair filters srcL through fl into dstL and srcR through fr into
// dstR in one loop. dst may be src (in place) or a different packet, which
// saves the copy a filter-into-another-buffer node would otherwise make.
// fl and fr must be distinct filters.
func ProcessPair(fl, fr *Biquad, dstL, dstR, srcL, srcR []float64) {
	checkPair(dstL, dstR, srcL, srcR)
	dstL, dstR, srcR = dstL[:len(srcL)], dstR[:len(srcL)], srcR[:len(srcL)]
	l1, l2, r1, r2 := fl.z1, fl.z2, fr.z1, fr.z2
	for i, x := range srcL {
		dstL[i], l1, l2 = fl.tick(x, l1, l2)
		dstR[i], r1, r2 = fr.tick(srcR[i], r1, r2)
	}
	fl.z1, fl.z2, fr.z1, fr.z2 = Settle(l1), Settle(l2), Settle(r1), Settle(r2)
}

// cascade3 runs buf through a, b and c in series, in place, in one pass.
func cascade3(a, b, c *Biquad, buf []float64) {
	a1, a2, b1, b2, c1, c2 := a.z1, a.z2, b.z1, b.z2, c.z1, c.z2
	for i, x := range buf {
		x, a1, a2 = a.tick(x, a1, a2)
		x, b1, b2 = b.tick(x, b1, b2)
		buf[i], c1, c2 = c.tick(x, c1, c2)
	}
	a.z1, a.z2 = Settle(a1), Settle(a2)
	b.z1, b.z2 = Settle(b1), Settle(b2)
	c.z1, c.z2 = Settle(c1), Settle(c2)
}

// ProcessEQPair runs bufL through l and bufR through r, in place: six
// sections (three bands, two channels) advance in each iteration.
func ProcessEQPair(l, r *ThreeBandEQ, bufL, bufR []float64) {
	checkPair(bufL, bufR, bufL, bufR)
	bufR = bufR[:len(bufL)]
	la, lb, lc, ra, rb, rc := l.low, l.mid, l.high, r.low, r.mid, r.high
	la1, la2, lb1, lb2, lc1, lc2 := la.z1, la.z2, lb.z1, lb.z2, lc.z1, lc.z2
	ra1, ra2, rb1, rb2, rc1, rc2 := ra.z1, ra.z2, rb.z1, rb.z2, rc.z1, rc.z2
	for i, x := range bufL {
		x, la1, la2 = la.tick(x, la1, la2)
		x, lb1, lb2 = lb.tick(x, lb1, lb2)
		bufL[i], lc1, lc2 = lc.tick(x, lc1, lc2)
		x = bufR[i]
		x, ra1, ra2 = ra.tick(x, ra1, ra2)
		x, rb1, rb2 = rb.tick(x, rb1, rb2)
		bufR[i], rc1, rc2 = rc.tick(x, rc1, rc2)
	}
	la.z1, la.z2, lb.z1, lb.z2, lc.z1, lc.z2 = Settle(la1), Settle(la2), Settle(lb1), Settle(lb2), Settle(lc1), Settle(lc2)
	ra.z1, ra.z2, rb.z1, rb.z2, rc.z1, rc.z2 = Settle(ra1), Settle(ra2), Settle(rb1), Settle(rb2), Settle(rc1), Settle(rc2)
}
