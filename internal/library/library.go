package library

import (
	"fmt"
	"sort"
	"sync"

	"djstar/internal/synth"
)

// Entry is one track in the library together with its analysis.
type Entry struct {
	// Track is the audio (synthetic in this reproduction; a real build
	// would decode files through the Hardware Access layer).
	Track *synth.Track
	// Analysis holds the offline analysis results.
	Analysis *Analysis
}

// Library indexes analyzed tracks by name. It is safe for concurrent use,
// so tracks may be analyzed and added from several goroutines at once.
type Library struct {
	mu       sync.RWMutex
	analyzer *Analyzer
	entries  map[string]*Entry
}

// New returns an empty library analyzing at the given sampling rate.
func New(rate int) *Library {
	return &Library{
		analyzer: NewAnalyzer(rate),
		entries:  make(map[string]*Entry),
	}
}

// Add analyzes a track and stores it. Adding a track whose name already
// exists replaces the previous entry.
func (l *Library) Add(t *synth.Track) (*Entry, error) {
	if t == nil || t.Name == "" {
		return nil, fmt.Errorf("library: track must be non-nil and named")
	}
	an, err := l.analyzer.Analyze(t.L, t.R)
	if err != nil {
		return nil, fmt.Errorf("library: analyzing %q: %w", t.Name, err)
	}
	e := &Entry{Track: t, Analysis: an}
	l.mu.Lock()
	l.entries[t.Name] = e
	l.mu.Unlock()
	return e, nil
}

// Get returns the entry for name, or nil.
func (l *Library) Get(name string) *Entry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.entries[name]
}

// Len returns the number of tracks.
func (l *Library) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.entries)
}

// Names returns all track names, sorted.
func (l *Library) Names() []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]string, 0, len(l.entries))
	for n := range l.entries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// CompatibleBPM lists tracks whose analyzed tempo is within pct percent
// of the given BPM (a DJ's "what can I mix into this" query), sorted by
// tempo distance.
func (l *Library) CompatibleBPM(bpm, pct float64) []*Entry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var out []*Entry
	for _, e := range l.entries {
		if e.Analysis.BPM <= 0 {
			continue
		}
		diff := (e.Analysis.BPM - bpm) / bpm * 100
		if diff < 0 {
			diff = -diff
		}
		if diff <= pct {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		da := out[a].Analysis.BPM - bpm
		db := out[b].Analysis.BPM - bpm
		if da < 0 {
			da = -da
		}
		if db < 0 {
			db = -db
		}
		return da < db
	})
	return out
}
