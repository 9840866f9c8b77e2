package audio

import (
	"encoding/binary"
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
	// A long packet, then shorter ones that reuse its encode buffer.
	for _, cut := range [][2]int{{0, 200}, {200, 250}, {250, 300}} {
		if err := w.WritePacket(Stereo{L: src.L[cut[0]:cut[1]], R: src.R[cut[0]:cut[1]]}); err != nil {
			t.Fatal(err)
		}
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

	checkWAV(t, buf.data, src)
}

// checkWAV checks a finished file byte by byte: the canonical 44-byte
// header at its fixed offsets, then each frame's little-endian int16 pair
// against PCM16 of the source sample.
func checkWAV(t *testing.T, data []byte, src Stereo) {
	t.Helper()
	n := src.Len()
	if len(data) != 44+4*n {
		t.Fatalf("file is %d bytes, want %d", len(data), 44+4*n)
	}
	le := binary.LittleEndian
	for _, f := range []struct {
		off  int
		tag  string
		got  uint32
		want uint32
	}{
		{4, "RIFF size", le.Uint32(data[4:]), uint32(36 + 4*n)},
		{16, "fmt size", le.Uint32(data[16:]), 16},
		{20, "format (PCM)", uint32(le.Uint16(data[20:])), 1},
		{22, "channels", uint32(le.Uint16(data[22:])), 2},
		{24, "sample rate", le.Uint32(data[24:]), SampleRate},
		{28, "byte rate", le.Uint32(data[28:]), SampleRate * 4},
		{32, "block align", uint32(le.Uint16(data[32:])), 4},
		{34, "bits per sample", uint32(le.Uint16(data[34:])), 16},
		{40, "data size", le.Uint32(data[40:]), uint32(4 * n)},
	} {
		if f.got != f.want {
			t.Errorf("header %s at offset %d = %d, want %d", f.tag, f.off, f.got, f.want)
		}
	}
	for off, tag := range map[int]string{0: "RIFF", 8: "WAVE", 12: "fmt ", 36: "data"} {
		if got := string(data[off : off+4]); got != tag {
			t.Errorf("header tag at offset %d = %q, want %q", off, got, tag)
		}
	}
	for i := 0; i < n; i++ {
		l := int16(le.Uint16(data[44+4*i:]))
		r := int16(le.Uint16(data[44+4*i+2:]))
		if l != PCM16(src.L[i]) || r != PCM16(src.R[i]) {
			t.Fatalf("frame %d = (%d, %d), want (%d, %d)", i, l, r, PCM16(src.L[i]), PCM16(src.R[i]))
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
	checkWAV(t, buf.data, s)
	le := binary.LittleEndian
	if l, r := int16(le.Uint16(buf.data[44:])), int16(le.Uint16(buf.data[46:])); l != 32767 || r != -32767 {
		t.Fatalf("clipping not clamped: %d %d", l, r)
	}
}

// discardSeeker is an io.WriteSeeker that keeps nothing, so the writer's
// own allocations are the only ones measured.
type discardSeeker struct{}

func (discardSeeker) Write(p []byte) (int, error)                  { return len(p), nil }
func (discardSeeker) Seek(offset int64, whence int) (int64, error) { return 0, nil }

// TestWAVWriterAllocatesNothingPerPacket pins the record path: djstar
// -record writes one packet per cycle from RunRealtime's between hook,
// so the steady state must not allocate.
func TestWAVWriterAllocatesNothingPerPacket(t *testing.T) {
	w, err := NewWAVWriter(discardSeeker{}, SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStereo(PacketSize)
	for i := range s.L {
		s.L[i], s.R[i] = 0.25, -0.25
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := w.WritePacket(s); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("WritePacket allocates %.1f times per packet, want 0", allocs)
	}
}

func TestPCM16Symmetry(t *testing.T) {
	if PCM16(1) != 32767 || PCM16(-1) != -32767 || PCM16(0) != 0 {
		t.Fatalf("PCM16 endpoints: %d %d %d", PCM16(1), PCM16(-1), PCM16(0))
	}
}

// TestPCM16RoundsHalfAwayFromZero holds PCM16 to math.Round of the clamped,
// scaled sample at every half step of the 16-bit range and on either side
// of it, and past the clamp.
func TestPCM16RoundsHalfAwayFromZero(t *testing.T) {
	ref := func(x float64) int16 { return int16(math.Round(Clamp(x, -1, 1) * 32767)) }
	xs := []float64{math.Inf(1), math.Inf(-1), 2, -2, math.Copysign(0, -1), 1e-300, -1e-300}
	for k := -65535; k <= 65535; k++ {
		x := float64(k) / 2 / 32767
		xs = append(xs, x, math.Nextafter(x, 2), math.Nextafter(x, -2))
	}
	for _, x := range xs {
		if got, want := PCM16(x), ref(x); got != want {
			t.Fatalf("PCM16(%v) = %d, want %d", x, got, want)
		}
	}
}
