package serve

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"

	"subcouple/internal/serve/registry"
)

// applyError maps serving errors to status codes: refusal while draining
// and pool/admission timeouts are 503 (retryable elsewhere), recovered
// panics on the hot path are 500 (a server fault, not the caller's),
// everything else is a 400-class caller problem. The per-status-class
// counters in instrument pick up the split, so client errors can't mask
// server faults the way the old single serve/errors counter let them.
func (s *Server) applyError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, registry.ErrClosed), errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, registry.ErrApplyPanic):
		http.Error(w, err.Error(), http.StatusInternalServerError)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

// ReadJSON strictly decodes the request body into v (unknown fields and
// trailing garbage are errors), answering 400 itself on failure. Exported so
// the gateway (internal/gateway) speaks the exact same JSON dialect as the
// daemon it fronts.
func ReadJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		http.Error(w, fmt.Sprintf("bad JSON request: %v", err), http.StatusBadRequest)
		return false
	}
	if dec.More() {
		http.Error(w, "bad JSON request: trailing data", http.StatusBadRequest)
		return false
	}
	return true
}

// readJSON is the package-internal spelling of ReadJSON.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	return ReadJSON(w, r, v)
}

// EncodeRawVector renders y in the raw codec: 8·len(y) bytes of
// little-endian float64, bit-exact via math.Float64bits. The inverse of
// DecodeRawVector; shared by the server, the gateway's tests and benchmarks,
// and any Go client that wants the binary path.
func EncodeRawVector(y []float64) []byte {
	buf := make([]byte, 8*len(y))
	for i, v := range y {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return buf
}

// DecodeRawVector parses a raw-codec body back into float64s, bit-exact. The
// byte length must be a multiple of 8.
func DecodeRawVector(data []byte) ([]float64, error) {
	if len(data)%8 != 0 {
		return nil, fmt.Errorf("raw vector body has %d bytes, want a multiple of 8 (float64-LE)", len(data))
	}
	x := make([]float64, len(data)/8)
	for i := range x {
		x[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return x, nil
}

// readRawVector reads the binary codec body: exactly 8·n little-endian
// float64 bytes.
func readRawVector(w http.ResponseWriter, r *http.Request, n int) ([]float64, bool) {
	want := 8 * n
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, int64(want)+1))
	if err != nil {
		http.Error(w, fmt.Sprintf("raw body: %v (want exactly %d bytes = %d float64-LE)", err, want, n),
			http.StatusBadRequest)
		return nil, false
	}
	if len(body) != want {
		http.Error(w, fmt.Sprintf("raw body has %d bytes, want exactly %d (%d float64-LE)", len(body), want, n),
			http.StatusBadRequest)
		return nil, false
	}
	x, err := DecodeRawVector(body)
	if err != nil {
		http.Error(w, fmt.Sprintf("raw body: %v", err), http.StatusBadRequest)
		return nil, false
	}
	return x, true
}

// writeRawVector writes y as 8·len(y) little-endian float64 bytes.
func writeRawVector(w http.ResponseWriter, y []float64) {
	buf := EncodeRawVector(y)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
	w.Write(buf)
}

// WriteJSON writes v as the 200 JSON response body. Exported alongside
// ReadJSON/EncodeRawVector for the gateway and other embedders.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	WriteJSONBody(w, v)
}

// WriteJSONBody encodes v after the caller has written status and headers
// (non-200 JSON replies).
func WriteJSONBody(w http.ResponseWriter, v any) {
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// writeJSON / writeJSONBody are the package-internal spellings.
func writeJSON(w http.ResponseWriter, v any)     { WriteJSON(w, v) }
func writeJSONBody(w http.ResponseWriter, v any) { WriteJSONBody(w, v) }

func queryBool(r *http.Request, key string) bool {
	switch strings.ToLower(r.URL.Query().Get(key)) {
	case "1", "true", "yes", "on":
		return true
	}
	return false
}
