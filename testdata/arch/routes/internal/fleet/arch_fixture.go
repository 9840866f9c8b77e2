package fleet

import "net/http"

// A second table for a per-session route.
func mountSnapshot(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/sessions/{id}/snapshot", func(http.ResponseWriter, *http.Request) {})
}
