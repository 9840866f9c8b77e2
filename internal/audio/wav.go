package audio

import (
	"encoding/binary"
	"fmt"
	"io"
)

// WAV encoding for the record path (RecordBuffer in Fig. 3 feeds a
// recorder in the real application). 16-bit PCM, interleaved stereo.

// WAVWriter streams stereo packets into a RIFF/WAVE container. Because
// the total length is unknown until Close, it requires an io.WriteSeeker
// to patch the header sizes at the end.
type WAVWriter struct {
	w      io.WriteSeeker
	rate   int
	frames int64
	closed bool
	buf    []byte // encoded packet, grown only for a longer packet
}

// NewWAVWriter writes a 16-bit stereo WAV header for the given sampling
// rate and returns a writer ready to receive packets.
func NewWAVWriter(w io.WriteSeeker, rate int) (*WAVWriter, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("audio: invalid WAV sample rate %d", rate)
	}
	ww := &WAVWriter{w: w, rate: rate}
	if err := ww.writeHeader(0); err != nil {
		return nil, err
	}
	return ww, nil
}

func (ww *WAVWriter) writeHeader(dataBytes uint32) error {
	const (
		channels      = 2
		bitsPerSample = 16
	)
	blockAlign := channels * bitsPerSample / 8
	byteRate := uint32(ww.rate * blockAlign)

	var hdr [44]byte
	copy(hdr[0:4], "RIFF")
	binary.LittleEndian.PutUint32(hdr[4:8], 36+dataBytes)
	copy(hdr[8:12], "WAVE")
	copy(hdr[12:16], "fmt ")
	binary.LittleEndian.PutUint32(hdr[16:20], 16) // PCM fmt chunk size
	binary.LittleEndian.PutUint16(hdr[20:22], 1)  // PCM
	binary.LittleEndian.PutUint16(hdr[22:24], channels)
	binary.LittleEndian.PutUint32(hdr[24:28], uint32(ww.rate))
	binary.LittleEndian.PutUint32(hdr[28:32], byteRate)
	binary.LittleEndian.PutUint16(hdr[32:34], uint16(blockAlign))
	binary.LittleEndian.PutUint16(hdr[34:36], bitsPerSample)
	copy(hdr[36:40], "data")
	binary.LittleEndian.PutUint32(hdr[40:44], dataBytes)

	if _, err := ww.w.Seek(0, io.SeekStart); err != nil {
		return err
	}
	_, err := ww.w.Write(hdr[:])
	return err
}

// WritePacket appends one stereo packet, clamping samples to [-1, 1]. It
// encodes into a buffer kept on the writer, so a stream of equal-length
// packets allocates nothing after the first.
func (ww *WAVWriter) WritePacket(s Stereo) error {
	if ww.closed {
		return fmt.Errorf("audio: write to closed WAVWriter")
	}
	n := s.Len()
	if cap(ww.buf) < n*4 {
		ww.buf = make([]byte, n*4)
	}
	buf := ww.buf[:n*4]
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint16(buf[i*4:], uint16(PCM16(s.L[i])))
		binary.LittleEndian.PutUint16(buf[i*4+2:], uint16(PCM16(s.R[i])))
	}
	if _, err := ww.w.Write(buf); err != nil {
		return err
	}
	ww.frames += int64(n)
	return nil
}

// Frames returns the number of frames written so far.
func (ww *WAVWriter) Frames() int64 { return ww.frames }

// Close patches the RIFF header with the final sizes. The underlying
// writer is not closed.
func (ww *WAVWriter) Close() error {
	if ww.closed {
		return nil
	}
	ww.closed = true
	dataBytes := uint32(ww.frames * 4)
	if err := ww.writeHeader(dataBytes); err != nil {
		return err
	}
	_, err := ww.w.Seek(0, io.SeekEnd)
	return err
}

// PCM16 converts a float sample to a clamped 16-bit PCM value, x·32767
// rounded half away from zero: the WAV writer's and the track store's.
// v − q is exact and in (−1, 1), so its doubled truncation is the ±1 step
// math.Round would take, without Round's cost or a branch.
func PCM16(x float64) int16 {
	v := Clamp(x, -1, 1) * 32767
	q := int32(v)
	return int16(q + int32(2*(v-float64(q))))
}
