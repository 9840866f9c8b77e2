package audio

import (
	"bytes"
	"io"
	"math"
	"testing"
)

// seekBuffer implements io.WriteSeeker over a byte slice for tests.
type seekBuffer struct {
	data []byte
	pos  int
}

func (b *seekBuffer) Write(p []byte) (int, error) {
	if need := b.pos + len(p); need > len(b.data) {
		b.data = append(b.data, make([]byte, need-len(b.data))...)
	}
	copy(b.data[b.pos:], p)
	b.pos += len(p)
	return len(p), nil
}

func (b *seekBuffer) Seek(offset int64, whence int) (int64, error) {
	switch whence {
	case io.SeekStart:
		b.pos = int(offset)
	case io.SeekCurrent:
		b.pos += int(offset)
	case io.SeekEnd:
		b.pos = len(b.data) + int(offset)
	}
	return int64(b.pos), nil
}

func TestWAVRoundTrip(t *testing.T) {
	var buf seekBuffer
	w, err := NewWAVWriter(&buf, SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	src := NewStereo(300)
	for i := range src.L {
		src.L[i] = math.Sin(2 * math.Pi * float64(i) / 50)
		src.R[i] = -src.L[i] / 2
	}
	// Write in two packets.
	half := Stereo{L: src.L[:150], R: src.R[:150]}
	rest := Stereo{L: src.L[150:], R: src.R[150:]}
	if err := w.WritePacket(half); err != nil {
		t.Fatal(err)
	}
	if err := w.WritePacket(rest); err != nil {
		t.Fatal(err)
	}
	if w.Frames() != 300 {
		t.Fatalf("Frames = %d", w.Frames())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil { // idempotent
		t.Fatal(err)
	}

	gotL, gotR, rate, err := DecodeWAV(bytes.NewReader(buf.data))
	if err != nil {
		t.Fatal(err)
	}
	if rate != SampleRate {
		t.Fatalf("rate = %d", rate)
	}
	if len(gotL) != 300 || len(gotR) != 300 {
		t.Fatalf("decoded %d/%d frames", len(gotL), len(gotR))
	}
	for i := 0; i < 300; i++ {
		if math.Abs(float64(gotL[i])-src.L[i]) > 1.0/32000 {
			t.Fatalf("L[%d] = %v, want %v", i, gotL[i], src.L[i])
		}
		if math.Abs(float64(gotR[i])-src.R[i]) > 1.0/32000 {
			t.Fatalf("R[%d] = %v, want %v", i, gotR[i], src.R[i])
		}
	}
}

func TestWAVWriterValidation(t *testing.T) {
	var buf seekBuffer
	if _, err := NewWAVWriter(&buf, 0); err == nil {
		t.Fatal("rate 0 accepted")
	}
	w, _ := NewWAVWriter(&buf, 44100)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.WritePacket(NewStereo(4)); err == nil {
		t.Fatal("write after close accepted")
	}
}

func TestWAVClampsClipping(t *testing.T) {
	var buf seekBuffer
	w, _ := NewWAVWriter(&buf, 44100)
	s := NewStereo(2)
	s.L[0], s.R[0] = 5, -5
	s.L[1], s.R[1] = 0.5, -0.5
	if err := w.WritePacket(s); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	gotL, gotR, _, err := DecodeWAV(bytes.NewReader(buf.data))
	if err != nil {
		t.Fatal(err)
	}
	if gotL[0] < 0.999 || gotR[0] > -0.999 {
		t.Fatalf("clipping not clamped: %v %v", gotL[0], gotR[0])
	}
}

func TestDecodeWAVRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("not a wav file at all, just text padding!!!!"),
	}
	for i, c := range cases {
		if _, _, _, err := DecodeWAV(bytes.NewReader(c)); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
	// Valid header but truncated data.
	var buf seekBuffer
	w, _ := NewWAVWriter(&buf, 44100)
	_ = w.WritePacket(NewStereo(10))
	_ = w.Close()
	if _, _, _, err := DecodeWAV(bytes.NewReader(buf.data[:50])); err == nil {
		t.Fatal("truncated data accepted")
	}
}

func TestPCM16Symmetry(t *testing.T) {
	if pcm16(1) != 32767 || pcm16(-1) != -32767 || pcm16(0) != 0 {
		t.Fatalf("pcm16 endpoints: %d %d %d", pcm16(1), pcm16(-1), pcm16(0))
	}
}
