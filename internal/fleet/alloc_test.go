package fleet

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"djstar/internal/engine"
	"djstar/internal/graph"
	"djstar/internal/synth"
)

// TestV1AllocationBudget prices each /v1 route in bytes allocated per
// request, in process, on a default two-shard fleet of eight paced
// sessions of the default graph over one shared set of 16-bar tracks: the
// control plane's analogue of "zero allocations per Cycle". A session
// cycle allocates nothing, so what the heap gains while the requests run
// is theirs. Each budget is about 1.25 × the bytes measured on amd64 with
// go1.24 when the row was added; a route that allocates more fails, and a
// change that moves a route's cost re-measures its row.
func TestV1AllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on its own")
	}
	gc := graph.DefaultConfig()
	tracks := synth.StandardDeckTracks(gc.TrackBars)
	gc.Tracks = tracks[:]
	var cfg Config
	cfg.Engine.Graph = gc
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const standing = 8
	for i := 0; i < standing; i++ {
		if _, _, err := f.AddSession(engine.SessionSpec{ID: fmt.Sprintf("standing-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	// A snapshot's cost depends on full statistics windows: let every
	// session run its first 256 cycles.
	deadline := time.Now().Add(30 * time.Second)
	for _, s := range f.Sessions() {
		for s.Engine().Cycles() < 256 {
			if time.Now().After(deadline) {
				t.Fatalf("session %s stuck at %d cycles", s.ID(), s.Engine().Cycles())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	h := f.Handler()
	serve := func(method, path, body string, want int) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code != want {
			t.Fatalf("%s %s = %d, want %d: %s", method, path, rec.Code, want, rec.Body)
		}
	}
	churn := 0
	for _, row := range []struct {
		name      string
		budgetKiB float64
		request   func(i int)
	}{
		{"POST + DELETE /v1/sessions (a pair)", 1580, func(int) {
			id := fmt.Sprintf("churn-%d", churn)
			churn++
			serve("POST", "/v1/sessions", `{"id":"`+id+`"}`, http.StatusCreated)
			serve("DELETE", "/v1/sessions/"+id, "", http.StatusNoContent)
		}},
		{"GET /v1/sessions/{id}/snapshot", 310, func(i int) {
			serve("GET", fmt.Sprintf("/v1/sessions/standing-%d/snapshot", i%standing), "", http.StatusOK)
		}},
		{"POST /v1/sessions/{id}/edits", 385, func(i int) {
			patch := "insert-delay:B:2"
			if i%2 == 1 {
				patch = "remove-delay:B"
			}
			// A removal needs the inserted delay live: wait for the
			// session to adopt each edit, as the benchmark's paced edits do.
			e := f.Session("standing-0").Engine()
			epoch := e.PlanEpoch()
			serve("POST", "/v1/sessions/standing-0/edits", `{"patch":"`+patch+`"}`, http.StatusOK)
			for until := time.Now().Add(10 * time.Second); e.PlanEpoch() == epoch; time.Sleep(time.Millisecond) {
				if time.Now().After(until) {
					t.Fatalf("%s not adopted at epoch %d", patch, epoch)
				}
			}
		}},
		{"GET /metrics", 415, func(int) { serve("GET", "/metrics", "", http.StatusOK) }},
		{"GET /v1/shards", 19, func(int) { serve("GET", "/v1/shards", "", http.StatusOK) }},
		{"GET /v1/sessions/{id}", 11, func(i int) {
			serve("GET", fmt.Sprintf("/v1/sessions/standing-%d", i%standing), "", http.StatusOK)
		}},
	} {
		// The least of three rounds of eight: a stray runtime or test
		// allocation inflates a round, never deflates one.
		const n = 8
		least := 0.0
		for round := 0; round < 3; round++ {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := 0; i < n; i++ {
				row.request(round*n + i)
			}
			runtime.ReadMemStats(&after)
			kib := float64(after.TotalAlloc-before.TotalAlloc) / n / 1024
			if round == 0 || kib < least {
				least = kib
			}
		}
		t.Logf("%-38s %8.1f KiB per request (budget %.0f)", row.name, least, row.budgetKiB)
		if least > row.budgetKiB {
			t.Errorf("%s allocates %.1f KiB per request, over its budget of %.0f KiB", row.name, least, row.budgetKiB)
		}
	}
}

// TestFleetRendersTracksOnce: on a fleet whose graph names no tracks, New
// renders the standard set once and every session plays it, an override
// graph without tracks of its own too, so AddSession allocates only the
// session's state: well under 3 MiB, where four 16-bar tracks of its own
// are 21 MB.
func TestFleetRendersTracksOnce(t *testing.T) {
	var cfg Config
	cfg.Engine.Graph = graph.DefaultConfig()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	a, _, err := f.AddSession(engine.SessionSpec{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	if !raceEnabled && alloc > 3<<20 {
		t.Fatalf("AddSession allocated %.1f MiB, want under 3", float64(alloc)/(1<<20))
	}
	t.Logf("AddSession allocated %.2f MiB", float64(alloc)/(1<<20))
	guest := graph.DefaultConfig()
	guest.Decks = 2
	for _, spec := range []engine.SessionSpec{{}, {Graph: &guest}} {
		b, _, err := f.AddSession(spec)
		if err != nil {
			t.Fatal(err)
		}
		want := a.Engine().Session().Decks
		for d, dk := range b.Engine().Session().Decks {
			if dk.Track() == nil || dk.Track() != want[d].Track() {
				t.Fatalf("session %s deck %d holds its own track", b.ID(), d)
			}
		}
	}
}
