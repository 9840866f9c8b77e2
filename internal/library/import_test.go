package library

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"strings"
	"testing"

	"djstar/internal/audio"
	"djstar/internal/synth"
)

// memWriter is a minimal io.WriteSeeker for building WAVs in memory.
type memWriter struct {
	data []byte
	pos  int
}

func (m *memWriter) Write(p []byte) (int, error) {
	if need := m.pos + len(p); need > len(m.data) {
		m.data = append(m.data, make([]byte, need-len(m.data))...)
	}
	copy(m.data[m.pos:], p)
	m.pos += len(p)
	return len(p), nil
}

func (m *memWriter) Seek(off int64, whence int) (int64, error) {
	switch whence {
	case io.SeekStart:
		m.pos = int(off)
	case io.SeekCurrent:
		m.pos += int(off)
	case io.SeekEnd:
		m.pos = len(m.data) + int(off)
	}
	return int64(m.pos), nil
}

// stereo widens a track's channels to a float64 clip.
func stereo(l, r []float32) audio.Stereo {
	s := audio.NewStereo(len(l))
	for i := range l {
		s.L[i], s.R[i] = float64(l[i]), float64(r[i])
	}
	return s
}

// wavBytes renders a clip to an in-memory WAV file.
func wavBytes(t *testing.T, clip audio.Stereo, rate int) []byte {
	t.Helper()
	var mw memWriter
	w, err := audio.NewWAVWriter(&mw, rate)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WritePacket(clip); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return mw.data
}

func TestImportWAVRoundTrip(t *testing.T) {
	src := synth.GenerateTrack(synth.TrackSpec{Name: "export", BPM: 126, Bars: 8, Seed: 5, QuietEvery: 0})
	data := wavBytes(t, stereo(src.L, src.R), audio.SampleRate)

	lib := New(audio.SampleRate)
	e, err := lib.ImportWAV(bytes.NewReader(data), "imported")
	if err != nil {
		t.Fatal(err)
	}
	if lib.Get("imported") != e {
		t.Fatal("entry not indexed")
	}
	// Analysis of the round-tripped audio recovers the tempo.
	if math.Abs(e.Analysis.BPM-126) > 3 {
		t.Fatalf("imported BPM = %v, want ~126", e.Analysis.BPM)
	}
	// The synthesized bar grid follows the detected BPM.
	wantBar := int(4 * 60 / e.Analysis.BPM * audio.SampleRate)
	if e.Track.FramesPerBar != wantBar {
		t.Fatalf("FramesPerBar = %d, want %d", e.Track.FramesPerBar, wantBar)
	}
	// 16-bit quantization: audio close to the original.
	for i := 0; i < 1000; i++ {
		if math.Abs(float64(e.Track.L[i])-float64(src.L[i])) > 1.0/32000 {
			t.Fatalf("sample %d differs beyond quantization", i)
		}
	}
}

// TestImportWAVEveryPCMValueExact imports a file holding every 16-bit
// value, ascending on the left and descending on the right: each stored
// float32 sample, scaled back by 32767, rounds to the PCM value it came
// from, and WAVWriter re-encodes the imported track to the same bytes
// wherever the PCM value is in its ±32767 range.
func TestImportWAVEveryPCMValueExact(t *testing.T) {
	const n = 1 << 16
	data := make([]byte, 44+4*n)
	copy(data, wavBytes(t, audio.NewStereo(0), audio.SampleRate)[:44])
	binary.LittleEndian.PutUint32(data[4:], 36+4*n)
	binary.LittleEndian.PutUint32(data[40:], 4*n)
	pcm := func(i int) (l, r int16) { return int16(i - n/2), int16(n/2 - 1 - i) }
	for i := 0; i < n; i++ {
		l, r := pcm(i)
		binary.LittleEndian.PutUint16(data[44+4*i:], uint16(l))
		binary.LittleEndian.PutUint16(data[46+4*i:], uint16(r))
	}
	e, err := New(audio.SampleRate).ImportWAV(bytes.NewReader(data), "every-value")
	if err != nil {
		t.Fatal(err)
	}
	again := wavBytes(t, stereo(e.Track.L, e.Track.R), audio.SampleRate)
	for i := 0; i < n; i++ {
		l, r := pcm(i)
		gl, gr := math.Round(float64(e.Track.L[i])*32767), math.Round(float64(e.Track.R[i])*32767)
		if gl != float64(l) || gr != float64(r) {
			t.Fatalf("frame %d: PCM (%d, %d) stored as (%v, %v), which scales back to (%v, %v)", i, l, r, e.Track.L[i], e.Track.R[i], gl, gr)
		}
		if l != -n/2 && r != -n/2 && !bytes.Equal(again[44+4*i:48+4*i], data[44+4*i:48+4*i]) {
			t.Fatalf("frame %d: PCM (%d, %d) re-encoded as % x", i, l, r, again[44+4*i:48+4*i])
		}
	}
}

func TestImportWAVValidation(t *testing.T) {
	lib := New(audio.SampleRate)
	if _, err := lib.ImportWAV(strings.NewReader("junk"), "x"); err == nil {
		t.Fatal("junk accepted")
	}
	if _, err := lib.ImportWAV(strings.NewReader(""), ""); err == nil {
		t.Fatal("empty name accepted")
	}
	// Wrong sampling rate is rejected (no import resampler).
	clip := audio.NewStereo(48000)
	data := wavBytes(t, clip, 48000)
	if _, err := lib.ImportWAV(bytes.NewReader(data), "wrongrate"); err == nil {
		t.Fatal("48 kHz file accepted into a 44.1 kHz library")
	}
}
