//go:build amd64

package synth

import (
	"math"
	"testing"
)

// goldenTrackHash is the FNV-1a hash of every stored float32 sample of
// StandardDeckTracks(16), captured before the renderer stopped evaluating
// the kick on the silent tail of each beat. It pins the render bit for
// bit: skipping a term whose envelope is exactly 0 adds nothing, so the
// hash must not move. amd64 only: other ports may fuse a*b+c into an FMA,
// which rounds differently.
const goldenTrackHash uint64 = 0xc4904e0c9de852c1

func TestStandardDeckTracksBitsPinned(t *testing.T) {
	h := uint64(14695981039346656037)
	fold := func(buf []float32) {
		for _, v := range buf {
			b := math.Float32bits(v)
			for s := 0; s < 32; s += 8 {
				h = (h ^ uint64(b>>s&0xff)) * 1099511628211
			}
		}
	}
	for _, tr := range StandardDeckTracks(16) {
		fold(tr.L)
		fold(tr.R)
	}
	if h != goldenTrackHash {
		t.Fatalf("standard track hash = %#x, want %#x: the rendered samples changed", h, goldenTrackHash)
	}
}
