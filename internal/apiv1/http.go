package apiv1

import (
	"encoding/json"
	"net/http"
)

// MaxBodyBytes caps every /v1 request body; no request type comes near
// it, so anything larger is refused as malformed.
const MaxBodyBytes = 64 << 10

// Write answers with v as indented JSON under the given status — the
// one response writer of both /v1 servers.
func Write(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is out; a dead client is not ours to report
}

// Decode reads a request body of at most MaxBodyBytes into v. Callers
// answer any error — malformed or oversized — with 400.
func Decode(w http.ResponseWriter, r *http.Request, v any) error {
	return json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes)).Decode(v)
}
