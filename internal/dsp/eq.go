package dsp

// ThreeBandEQ is the DJ-mixer style low/mid/high equalizer used by the
// channel strips ("ChannelX: Filter, EQ" in the paper's Fig. 3). Each band
// can be cut to -26 dB (a typical DJ "kill") or boosted up to +12 dB.
type ThreeBandEQ struct {
	low, mid, high *Biquad
	rate           int
	lowDB          float64
	midDB          float64
	highDB         float64
}

// EQ band crossover frequencies, matching common DJ mixer voicing.
const (
	eqLowFreq  = 250.0
	eqMidFreq  = 1200.0
	eqHighFreq = 6000.0

	// EQGainMin and EQGainMax bound the per-band gain in dB.
	EQGainMin = -26.0
	EQGainMax = +12.0
)

// NewThreeBandEQ returns a flat EQ for sampling rate hz.
func NewThreeBandEQ(hz int) *ThreeBandEQ {
	eq := &ThreeBandEQ{rate: hz}
	eq.low = NewBiquad(LowShelf, eqLowFreq, 0.9, 0, hz)
	eq.mid = NewBiquad(Peaking, eqMidFreq, 0.7, 0, hz)
	eq.high = NewBiquad(HighShelf, eqHighFreq, 0.9, 0, hz)
	return eq
}

// SetGains updates the three band gains in dB, clamped to
// [EQGainMin, EQGainMax]. Filter state is preserved so live tweaks do not
// click.
func (eq *ThreeBandEQ) SetGains(lowDB, midDB, highDB float64) {
	clamp := func(db float64) float64 {
		if db < EQGainMin {
			return EQGainMin
		}
		if db > EQGainMax {
			return EQGainMax
		}
		return db
	}
	eq.lowDB, eq.midDB, eq.highDB = clamp(lowDB), clamp(midDB), clamp(highDB)
	eq.low.Configure(LowShelf, eqLowFreq, 0.9, eq.lowDB, eq.rate)
	eq.mid.Configure(Peaking, eqMidFreq, 0.7, eq.midDB, eq.rate)
	eq.high.Configure(HighShelf, eqHighFreq, 0.9, eq.highDB, eq.rate)
}

// SetGainsFrom copies src's band gains and filter coefficients, keeping
// eq's filter state: the second channel of a stereo EQ takes what SetGains
// computed for the first. Both must have been built for one sampling rate.
func (eq *ThreeBandEQ) SetGainsFrom(src *ThreeBandEQ) {
	eq.lowDB, eq.midDB, eq.highDB = src.lowDB, src.midDB, src.highDB
	eq.low.SetCoeffsFrom(src.low)
	eq.mid.SetCoeffsFrom(src.mid)
	eq.high.SetCoeffsFrom(src.high)
}

// Process applies the three bands in series, in place, in one pass over
// buf (see cascade.go; ProcessEQPair does both channels of a stereo pair).
func (eq *ThreeBandEQ) Process(buf []float64) {
	cascade3(eq.low, eq.mid, eq.high, buf)
}
