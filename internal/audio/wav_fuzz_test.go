package audio

import (
	"bytes"
	"testing"
)

// FuzzDecodeWAV ensures the WAV parser never panics and never returns
// audio with non-finite samples, whatever bytes it is fed.
func FuzzDecodeWAV(f *testing.F) {
	// Seed with a valid file and near-miss corruptions of it.
	var buf seekBuffer
	w, err := NewWAVWriter(&buf, 44100)
	if err != nil {
		f.Fatal(err)
	}
	s := NewStereo(64)
	for i := range s.L {
		s.L[i] = float64(i%3) * 0.3
		s.R[i] = -s.L[i]
	}
	if err := w.WritePacket(s); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.data)
	f.Add(buf.data[:20])
	f.Add([]byte("RIFF1234WAVEfmt "))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		cl, cr, rate, err := DecodeWAV(bytes.NewReader(data))
		if err != nil {
			return // rejection is always fine
		}
		if rate < 0 {
			t.Fatalf("negative rate %d", rate)
		}
		if len(cl) != len(cr) {
			t.Fatalf("channel lengths %d and %d", len(cl), len(cr))
		}
		for i := range cl {
			l, r := cl[i], cr[i]
			if l < -1.01 || l > 1.01 || r < -1.01 || r > 1.01 {
				t.Fatalf("sample %d out of range: %v/%v", i, l, r)
			}
		}
	})
}
