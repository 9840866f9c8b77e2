package engine

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"djstar/internal/sched"
)

// TestRetuneWhileCycling posts retunes to a session whose cycle thread is
// running. A turntable speed is published to the generator that reads it
// mid-cycle (go test -race holds that to no data race); a deck that does
// not exist, or a load factor out of range, is answered 422 and changes
// nothing, whatever else the request held.
func TestRetuneWhileCycling(t *testing.T) {
	e, err := New(fastConfig(sched.NameSequential, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mux := http.NewServeMux()
	MountSessionRoutes(mux, func(id string) *Engine {
		if id != e.SessionID() {
			return nil
		}
		return e
	})
	retune := func(body string) int {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions/"+e.SessionID()+"/retune", strings.NewReader(body)))
		return rec.Code
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.Cycle(nil)
			}
		}
	}()
	for i := 0; i < 20; i++ {
		if code := retune(`{"turntable_speed":{"0":0.7,"3":-1.5}}`); code != http.StatusOK {
			t.Errorf("retune of decks 0 and 3: status %d, want 200", code)
		}
	}
	for _, body := range []string{
		`{"turntable_speed":{"9":0.7}}`,
		`{"turntable_speed":{"-1":0.7}}`,
		`{"load_factor":2,"turntable_speed":{"1":0.5,"4":0.5}}`,
		`{"load_factor":-1,"turntable_speed":{"1":0.5}}`,
	} {
		if code := retune(body); code != http.StatusUnprocessableEntity {
			t.Errorf("retune %s: status %d, want 422", body, code)
		}
	}
	close(stop)
	wg.Wait()

	if got := e.tcGen[0].Speed(); got != 0.7 {
		t.Errorf("deck 0 turntable speed %v, want 0.7", got)
	}
	if got := e.tcGen[3].Speed(); got != -1.5 {
		t.Errorf("deck 3 turntable speed %v, want -1.5", got)
	}
	if got := e.tcGen[1].Speed(); got != 0.97 {
		t.Errorf("deck 1 turntable speed %v after rejected retunes, want its nominal 0.97", got)
	}
	if got := e.LoadFactor(); got != 1 {
		t.Errorf("load factor %v after rejected retunes, want 1", got)
	}
}
