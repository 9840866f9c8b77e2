package library

import (
	"fmt"
	"io"

	"djstar/internal/audio"
	"djstar/internal/synth"
)

// ImportWAV decodes a 16-bit stereo PCM WAV stream (the Hardware Access
// layer "connects directly to the hard disk for efficiently loading music
// files", Fig. 2), wraps it as a playable track, analyzes it and adds it
// to the library. The analyzed BPM drives the track's bar grid so loops
// and beat-jumps work on imported material too.
func (l *Library) ImportWAV(r io.Reader, name string) (*Entry, error) {
	if name == "" {
		return nil, fmt.Errorf("library: import needs a track name")
	}
	left, right, rate, err := audio.DecodeWAV(r)
	if err != nil {
		return nil, fmt.Errorf("library: importing %q: %w", name, err)
	}
	if rate != l.analyzer.rate {
		return nil, fmt.Errorf("library: %q is %d Hz, library runs at %d Hz (no resampling on import)",
			name, rate, l.analyzer.rate)
	}
	an, err := l.analyzer.Analyze(left, right)
	if err != nil {
		return nil, fmt.Errorf("library: analyzing %q: %w", name, err)
	}

	framesPerBar := len(left)
	if an.BPM > 0 {
		framesPerBar = int(4 * 60 / an.BPM * float64(rate))
	}
	tr := &synth.Track{
		Name:         name,
		BPM:          an.BPM,
		L:            left,
		R:            right,
		FramesPerBar: framesPerBar,
		LoudBars:     nil, // unknown for imported audio
	}
	e := &Entry{Track: tr, Analysis: an}
	l.mu.Lock()
	l.entries[name] = e
	l.mu.Unlock()
	return e, nil
}
