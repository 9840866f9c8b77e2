//go:build amd64

package synth

import (
	"math"
	"testing"
)

// goldenTrackHash is the FNV-1a hash of every stored int16 sample of
// StandardDeckTracks(16) and of each track's Gain bits. It was captured
// when the tracks moved from float32 to 16-bit storage (DESIGN.md §29),
// and it pins the render bit for bit. amd64 only: other ports may fuse
// a*b+c into an FMA, which rounds differently.
const goldenTrackHash uint64 = 0x4e3775616855cf84

func TestStandardDeckTracksBitsPinned(t *testing.T) {
	h := uint64(14695981039346656037)
	fold := func(b uint64, bytes int) {
		for s := 0; s < 8*bytes; s += 8 {
			h = (h ^ (b >> s & 0xff)) * 1099511628211
		}
	}
	for _, tr := range StandardDeckTracks(16) {
		for i := range tr.L {
			fold(uint64(uint16(tr.L[i])), 2)
			fold(uint64(uint16(tr.R[i])), 2)
		}
		fold(math.Float64bits(tr.Gain), 8)
	}
	if h != goldenTrackHash {
		t.Fatalf("standard track hash = %#x, want %#x: the rendered samples changed", h, goldenTrackHash)
	}
}
