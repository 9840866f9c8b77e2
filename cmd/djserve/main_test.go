package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"djstar/internal/apiv1"
	"djstar/internal/fleet"
)

// TestSessionsShareTracks: two sessions created over POST /v1/sessions
// play the same rendered tracks on every deck, not four tracks each.
func TestSessionsShareTracks(t *testing.T) {
	cfg := fleet.Config{Shards: 1, WorkersPerShard: 1}
	cfg.Engine.Graph = graphConfig(0, 1)
	f, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	var ids []string
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		var created apiv1.CreateSessionResponse
		err = json.NewDecoder(resp.Body).Decode(&created)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %d: status %d, %v", i, resp.StatusCode, err)
		}
		ids = append(ids, created.Session.ID)
	}
	a := f.Session(ids[0]).Engine().Session().Decks
	b := f.Session(ids[1]).Engine().Session().Decks
	for d := range a {
		if a[d].Track() == nil || a[d].Track() != b[d].Track() {
			t.Fatalf("deck %d: the two sessions hold different tracks", d)
		}
	}
}
