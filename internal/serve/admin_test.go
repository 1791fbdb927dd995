package serve_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"subcouple/internal/core"
	"subcouple/internal/model"
	"subcouple/internal/serve"
)

// adminServer builds a server with the admin surface routed and model m
// pre-loaded under alias "m".
func adminServer(t *testing.T, m *model.Model) (*serve.Server, *httptest.Server, string) {
	t.Helper()
	return newTestServer(t, m, serve.Options{PoolSize: 1, Admin: true})
}

func adminPost(t *testing.T, ts *httptest.Server, path, contentType string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp, out
}

// nanGwArtifact encodes m with its first Gw value patched to NaN and the
// trailing checksum recomputed, so only value validation can refuse it.
func nanGwArtifact(t *testing.T, m *model.Model) []byte {
	t.Helper()
	data, err := model.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	var gw []byte
	for _, v := range m.Gw.Val {
		gw = binary.LittleEndian.AppendUint64(gw, math.Float64bits(v))
	}
	off := bytes.Index(data, gw)
	if off < 0 {
		t.Fatal("Gw values not found in the artifact")
	}
	binary.LittleEndian.PutUint64(data[off:], math.Float64bits(math.NaN()))
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
	return data
}

// TestAdminLifecycleOverHTTP drives the full admin story over the wire:
// load a second artifact (raw-bytes body), swap the alias onto it, watch
// /models report the new fingerprint, unload the displaced version, and
// hit every refusal (aliased unload 409, unknown 404, bad fingerprint 400,
// non-finite artifact 400).
func TestAdminLifecycleOverHTTP(t *testing.T) {
	mA := testModel(t, core.LowRank)
	mB := testModel(t, core.Wavelet)
	s, ts, name := adminServer(t, mA)
	fpA, _ := s.Fingerprint(name)

	// Load model B as raw artifact bytes.
	data, err := model.Encode(mB)
	if err != nil {
		t.Fatal(err)
	}
	resp, out := adminPost(t, ts, "/admin/models", "application/octet-stream", data)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin load: %d: %s", resp.StatusCode, out)
	}
	var loaded struct {
		Fingerprint string `json:"fingerprint"`
		Created     bool   `json:"created"`
	}
	if err := json.Unmarshal(out, &loaded); err != nil {
		t.Fatal(err)
	}
	if !loaded.Created {
		t.Fatal("first load must report created=true")
	}
	// Idempotent: loading the same bytes again returns the same key.
	if resp, out := adminPost(t, ts, "/admin/models", "application/octet-stream", data); resp.StatusCode != http.StatusOK {
		t.Fatalf("admin reload: %d: %s", resp.StatusCode, out)
	} else {
		var again struct {
			Fingerprint string `json:"fingerprint"`
			Created     bool   `json:"created"`
		}
		json.Unmarshal(out, &again)
		if again.Created || again.Fingerprint != loaded.Fingerprint {
			t.Fatalf("reload: %+v, want created=false fingerprint=%s", again, loaded.Fingerprint)
		}
	}

	// Load via JSON path mode too.
	pathBody, _ := json.Marshal(map[string]string{"path": saveArtifact(t, mB, "b.scm")})
	if resp, out := adminPost(t, ts, "/admin/models", "application/json", pathBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("admin path load: %d: %s", resp.StatusCode, out)
	}

	// Unloading the still-aliased serving version refuses with 409.
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/admin/models/%016x", ts.URL, fpA), nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusConflict {
		t.Fatalf("unload aliased: %d, want 409", resp.StatusCode)
	}

	// Swap the alias onto model B; the response names the displaced version.
	swapBody, _ := json.Marshal(map[string]string{"alias": name, "fingerprint": loaded.Fingerprint})
	resp, out = adminPost(t, ts, "/admin/swap", "application/json", swapBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin swap: %d: %s", resp.StatusCode, out)
	}
	var swapped struct {
		Alias        string  `json:"alias"`
		Fingerprint  string  `json:"fingerprint"`
		Previous     string  `json:"previous"`
		DrainSeconds float64 `json:"drain_seconds"`
	}
	if err := json.Unmarshal(out, &swapped); err != nil {
		t.Fatal(err)
	}
	if swapped.Previous != fmt.Sprintf("%016x", fpA) || swapped.DrainSeconds < 0 {
		t.Fatalf("swap response %+v, want previous %016x", swapped, fpA)
	}

	// /models reports the new fingerprint, mode and pool size.
	mresp, err := http.Get(ts.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	mout, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mout), loaded.Fingerprint) {
		t.Fatalf("/models after swap: %s (want fingerprint %s)", mout, loaded.Fingerprint)
	}
	if !strings.Contains(string(mout), `"mode":"exact"`) || !strings.Contains(string(mout), `"pool_size":1`) {
		t.Fatalf("/models missing mode/pool_size: %s", mout)
	}

	// The served bytes flipped with the alias.
	x := probeVec(mB.N, 3)
	bitwiseEqual(t, "post-admin-swap", postJSON(t, ts, name, x, false), direct(mB, x, false))

	// The displaced version is unaliased now: unload succeeds, second 404s.
	req, _ = http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/admin/models/%016x", ts.URL, fpA), nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusOK {
		t.Fatalf("unload displaced: %d, want 200", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/admin/models/%016x", ts.URL, fpA), nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unload unknown: %d, want 404", resp.StatusCode)
	}

	// An artifact with a NaN in Gw (checksum intact) never loads.
	if resp, out := adminPost(t, ts, "/admin/models", "application/octet-stream", nanGwArtifact(t, mB)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("NaN artifact load: %d %s, want 400", resp.StatusCode, out)
	}

	// Bad fingerprints and swaps to unknown versions refuse.
	if resp, _ := adminPost(t, ts, "/admin/swap", "application/json",
		[]byte(`{"alias":"m","fingerprint":"zzzz"}`)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad fingerprint: %d, want 400", resp.StatusCode)
	}
	if resp, _ := adminPost(t, ts, "/admin/swap", "application/json",
		[]byte(`{"alias":"m","fingerprint":"00000000deadbeef"}`)); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("swap unknown: %d, want 404", resp.StatusCode)
	}
}

// TestParseFingerprint pins the exact-width contract: every producer in the
// system prints fingerprints with %016x, so the parser accepts exactly 16
// hex digits (modulo surrounding whitespace) and nothing else. The old
// parser took any hex string up to 64 bits, so a truncated copy-paste like
// "dead" resolved to key 0xdead — a confusing 404 at best, a collision with
// a real short-valued fingerprint at worst.
func TestParseFingerprint(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
		ok   bool
	}{
		{"00000000deadbeef", 0xdeadbeef, true},
		{"ffffffffffffffff", 0xffffffffffffffff, true},
		{"0123456789abcdef", 0x0123456789abcdef, true},
		{"0123456789ABCDEF", 0x0123456789abcdef, true}, // case-insensitive hex
		{"  00000000deadbeef\n", 0xdeadbeef, true},     // shell-captured values round-trip
		{"", 0, false},
		{"   ", 0, false},
		{"0", 0, false},                 // the old parser accepted this as key 0
		{"dead", 0, false},              // truncated copy-paste
		{"00000000deadbee", 0, false},   // 15 digits
		{"000000000deadbeef", 0, false}, // 17 digits
		{"0x00000deadbeef1", 0, false},  // hex prefix is not a digit, even at full width
		{"00000000deadbeeg", 0, false},  // non-hex at full width
		{"-000000deadbeef1", 0, false},  // sign is not a digit
		{"0000 0000 dead be", 0, false}, // interior whitespace
		{"00000000_deadbeef", 0, false}, // go literal separators refused
	}
	for _, tc := range cases {
		got, err := serve.ParseFingerprint(tc.in)
		if tc.ok {
			if err != nil || got != tc.want {
				t.Errorf("ParseFingerprint(%q) = %x, %v; want %x, nil", tc.in, got, err, tc.want)
			}
		} else if err == nil {
			t.Errorf("ParseFingerprint(%q) = %x, nil; want error", tc.in, got)
		}
	}
}

// TestParseFingerprintRoundTrips pins that the formats the rest of the
// system emits — /models rows, admin responses, subx logs, all %016x — parse
// back to the same value for edge-case keys.
func TestParseFingerprintRoundTrips(t *testing.T) {
	for _, fp := range []uint64{0, 1, 0xdead, 1 << 63, 0xffffffffffffffff} {
		got, err := serve.ParseFingerprint(fmt.Sprintf("%016x", fp))
		if err != nil || got != fp {
			t.Errorf("round trip %016x: got %x, %v", fp, got, err)
		}
	}
}

// TestAdminRequiresLoopback pins the auth gate: a request whose RemoteAddr
// is not a loopback IP is refused with 403 before any body handling, and
// unparseable peers fail closed.
func TestAdminRequiresLoopback(t *testing.T) {
	s := serve.New(serve.Options{PoolSize: 1, Admin: true})
	t.Cleanup(s.Close)
	h := s.Handler()

	for _, remote := range []string{"10.1.2.3:5555", "192.168.1.9:80", "[2001:db8::1]:443", "garbage"} {
		r := httptest.NewRequest(http.MethodPost, "/admin/swap", strings.NewReader(`{"alias":"m","fingerprint":"0000000000000000"}`))
		r.RemoteAddr = remote
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusForbidden {
			t.Fatalf("remote %s: %d, want 403", remote, w.Code)
		}
	}
	// Loopback passes the gate (and then fails on the unknown version).
	for _, remote := range []string{"127.0.0.1:9999", "[::1]:9999"} {
		r := httptest.NewRequest(http.MethodPost, "/admin/swap", strings.NewReader(`{"alias":"m","fingerprint":"0000000000000001"}`))
		r.RemoteAddr = remote
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusNotFound {
			t.Fatalf("remote %s: %d, want 404 (past the gate, unknown version)", remote, w.Code)
		}
	}
}

// TestAdminDisabledByDefault: without Options.Admin the lifecycle routes do
// not exist at all.
func TestAdminDisabledByDefault(t *testing.T) {
	m := testModel(t, core.LowRank)
	_, ts, _ := newTestServer(t, m, serve.Options{PoolSize: 1})
	resp, _ := adminPost(t, ts, "/admin/swap", "application/json", []byte(`{"alias":"m","fingerprint":"1"}`))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("admin route without Options.Admin: %d, want 404", resp.StatusCode)
	}
}
