package apiv1

import (
	"encoding/json"
	"errors"
	"io"
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

// Decode reads a request body of at most MaxBodyBytes into v: exactly
// one JSON value, naming no field v lacks, so a misspelled or retired
// field is refused instead of silently ignored. Callers answer any
// error — malformed, oversized, unknown field or trailing data — with
// 400.
func Decode(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.Decode(&struct{}{}) != io.EOF {
		return errors.New("trailing data after the JSON body")
	}
	return nil
}
