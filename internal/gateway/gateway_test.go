package gateway_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"subcouple/internal/core"
	"subcouple/internal/experiments"
	"subcouple/internal/gateway"
	"subcouple/internal/geom"
	"subcouple/internal/model"
	"subcouple/internal/obs"
	"subcouple/internal/serve"
	"subcouple/internal/solver"
)

// testModel extracts the 256-contact alternating example once for the whole
// package (the same fixture the serve tests use, so gateway-vs-direct
// comparisons exercise a real operator).
func testModel(t testing.TB) *model.Model {
	t.Helper()
	if extracted != nil {
		return extracted
	}
	raw := geom.AlternatingGrid(64, 64, 16, 16, 1, 3)
	layout, maxLevel := core.Prepare(raw, 4)
	g := experiments.SyntheticG(layout)
	res, err := core.Extract(solver.NewDense(g), layout, core.Options{
		Method: core.LowRank, MaxLevel: maxLevel, ThresholdFactor: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	extracted = res.Model()
	return extracted
}

var extracted *model.Model

// newReplica boots one real subserve stack (serve.Server behind httptest)
// serving m under alias and returns it plus its host:port.
func newReplica(t *testing.T, m *model.Model, alias string) (*serve.Server, *httptest.Server, string) {
	t.Helper()
	s := serve.New(serve.Options{PoolSize: 2})
	if err := s.AddModel(alias, m); err != nil {
		t.Fatal(err)
	}
	s.SetReady(true)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts, strings.TrimPrefix(ts.URL, "http://")
}

// newGateway builds a gateway over the backends, runs the synchronous
// startup probe, and fronts it with httptest.
func newGateway(t *testing.T, opt gateway.Options, backends ...gateway.Backend) (*gateway.Gateway, *httptest.Server) {
	t.Helper()
	g, err := gateway.New(backends, opt)
	if err != nil {
		t.Fatal(err)
	}
	g.ProbeOnce()
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(func() { ts.Close(); g.Close() })
	return g, ts
}

func probeVec(n, shift int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = float64((i*31+shift*7)%17) - 8
	}
	return x
}

// direct computes the reference y on a fresh, private engine.
func direct(m *model.Model, x []float64, thresholded bool) []float64 {
	y := make([]float64, m.N)
	model.NewEngine(m).ApplyPanelInto(y, x, 1, 1, thresholded)
	return y
}

func bitwiseEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s[%d]: %v vs %v (not bitwise identical)", what, i, got[i], want[i])
		}
	}
}

// postJSON fires one JSON /apply at url's host and returns the decoded y.
func postJSON(t *testing.T, base, name string, x []float64, thresholded bool) []float64 {
	t.Helper()
	req := map[string]any{"x": x, "thresholded": thresholded}
	if name != "" {
		req["model"] = name
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/apply", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/apply: %d: %s", resp.StatusCode, out)
	}
	var ar struct {
		Model string    `json:"model"`
		N     int       `json:"n"`
		Y     []float64 `json:"y"`
	}
	if err := json.Unmarshal(out, &ar); err != nil {
		t.Fatalf("/apply response: %v", err)
	}
	return ar.Y
}

// postRaw fires one raw float64-LE /apply and returns the decoded y.
func postRaw(t *testing.T, base, name string, x []float64, thresholded bool) []float64 {
	t.Helper()
	url := base + "/apply"
	sep := "?"
	if name != "" {
		url += "?model=" + name
		sep = "&"
	}
	if thresholded {
		url += sep + "thresholded=1"
	}
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(serve.EncodeRawVector(x)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("raw /apply: %d: %s", resp.StatusCode, out)
	}
	y, err := serve.DecodeRawVector(out)
	if err != nil {
		t.Fatalf("raw /apply response: %v", err)
	}
	return y
}

// TestParseBackend pins the -backend flag grammar.
func TestParseBackend(t *testing.T) {
	if b, err := gateway.ParseBackend("m=127.0.0.1:8391"); err != nil || b.Alias != "m" || b.Addr != "127.0.0.1:8391" {
		t.Fatalf("ParseBackend: %+v, %v", b, err)
	}
	for _, bad := range []string{"", "m", "m=", "=127.0.0.1:80", "m=127.0.0.1", "m=:", "m=host:port:extra"} {
		if _, err := gateway.ParseBackend(bad); err == nil {
			t.Errorf("ParseBackend(%q): accepted, want error", bad)
		}
	}
}

// TestParseBackendsFile pins the fleet-map file format: one backend per
// line, blank lines and comments skipped, parse errors named by line.
func TestParseBackendsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.txt")
	content := "# production fleet\n\nm=10.0.0.1:8391\nm=10.0.0.2:8391\n  aux=10.0.0.3:8391  \n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := gateway.ParseBackendsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []gateway.Backend{
		{Alias: "m", Addr: "10.0.0.1:8391"},
		{Alias: "m", Addr: "10.0.0.2:8391"},
		{Alias: "aux", Addr: "10.0.0.3:8391"},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d backends, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("backend %d: %+v, want %+v", i, got[i], want[i])
		}
	}

	bad := filepath.Join(t.TempDir(), "bad.txt")
	os.WriteFile(bad, []byte("m=10.0.0.1:8391\nnot a backend\n"), 0o644)
	if _, err := gateway.ParseBackendsFile(bad); err == nil || !strings.Contains(err.Error(), ":2:") {
		t.Fatalf("bad file: err %v, want line-2 parse error", err)
	}
}

// TestNewRejectsBadFleets pins config validation: an empty fleet, a
// duplicate enrollment, and an unparseable address are all refused up
// front, not at first request.
func TestNewRejectsBadFleets(t *testing.T) {
	if _, err := gateway.New(nil, gateway.Options{}); err == nil {
		t.Fatal("empty fleet accepted")
	}
	dup := []gateway.Backend{{Alias: "m", Addr: "127.0.0.1:1"}, {Alias: "m", Addr: "127.0.0.1:1"}}
	if _, err := gateway.New(dup, gateway.Options{}); err == nil {
		t.Fatal("duplicate backend accepted")
	}
	if _, err := gateway.New([]gateway.Backend{{Alias: "m", Addr: "nohost"}}, gateway.Options{}); err == nil {
		t.Fatal("addr without port accepted")
	}
}

// TestGatewayProxiesBitwise is the core correctness contract: an apply (or
// column) through the gateway returns byte-for-byte what the replica's
// engine computes — both codecs, plain and thresholded, with the alias in
// the query, in the JSON body, or defaulted (single-alias fleet).
func TestGatewayProxiesBitwise(t *testing.T) {
	m := testModel(t)
	_, _, addr1 := newReplica(t, m, "m")
	_, _, addr2 := newReplica(t, m, "m")
	_, ts := newGateway(t, gateway.Options{},
		gateway.Backend{Alias: "m", Addr: addr1},
		gateway.Backend{Alias: "m", Addr: addr2})

	for shift := 0; shift < 4; shift++ {
		x := probeVec(m.N, shift)
		bitwiseEqual(t, "json apply", postJSON(t, ts.URL, "m", x, false), direct(m, x, false))
		bitwiseEqual(t, "json apply thresholded", postJSON(t, ts.URL, "m", x, true), direct(m, x, true))
		bitwiseEqual(t, "raw apply", postRaw(t, ts.URL, "m", x, false), direct(m, x, false))
		bitwiseEqual(t, "raw apply thresholded", postRaw(t, ts.URL, "m", x, true), direct(m, x, true))
		// Single-alias fleet: the model name may be omitted in either codec.
		bitwiseEqual(t, "json apply default alias", postJSON(t, ts.URL, "", x, false), direct(m, x, false))
		bitwiseEqual(t, "raw apply default alias", postRaw(t, ts.URL, "", x, false), direct(m, x, false))
	}

	// /column relays bitwise too, in both formats.
	resp, err := http.Get(ts.URL + "/column?model=m&j=3&format=raw")
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/column raw: %d: %s", resp.StatusCode, out)
	}
	col, err := serve.DecodeRawVector(out)
	if err != nil {
		t.Fatal(err)
	}
	e := model.NewEngine(m)
	want := make([]float64, m.N)
	e.ColumnInto(want, 3, false)
	bitwiseEqual(t, "column raw", col, want)
}

// stubBackend is a scriptable fake subserve: readyz/models behave like the
// real daemon's, while /apply answers with a fixed payload, a 503 shed, or
// a partial-body abort on command.
type stubBackend struct {
	alias   string
	fp      atomic.Value // string; mutated mid-test to simulate a rolling push
	payload []byte

	ready     atomic.Bool
	shed      atomic.Bool
	partial   atomic.Bool
	applyHits atomic.Int64

	ts *httptest.Server
}

func (s *stubBackend) setFingerprint(fp string) { s.fp.Store(fp) }

func newStubBackend(t *testing.T, alias, fp string, payload []byte) *stubBackend {
	t.Helper()
	s := &stubBackend{alias: alias, payload: payload}
	s.fp.Store(fp)
	s.ready.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			http.Error(w, `{"ready":false,"reason":"shedding"}`, http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, `{"ready":true,"queueDepth":0,"poolInUse":0}`)
	})
	mux.HandleFunc("/models", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `[{"name":%q,"fingerprint":%q,"contacts":4,"method":"lowrank"}]`, s.alias, s.fp.Load())
	})
	apply := func(w http.ResponseWriter, r *http.Request) {
		s.applyHits.Add(1)
		if s.shed.Load() {
			http.Error(w, "shedding", http.StatusServiceUnavailable)
			return
		}
		if s.partial.Load() {
			// Promise more bytes than we deliver, then abort the connection:
			// the client (the gateway) sees a mid-body transport error.
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Length", strconv.Itoa(len(s.payload)*2))
			w.Write(s.payload[:len(s.payload)/2])
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			panic(http.ErrAbortHandler)
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(s.payload)
	}
	mux.HandleFunc("/apply", apply)
	mux.HandleFunc("/column", apply)
	s.ts = httptest.NewServer(mux)
	t.Cleanup(s.ts.Close)
	return s
}

func (s *stubBackend) addr() string { return strings.TrimPrefix(s.ts.URL, "http://") }

// postRawOK fires one raw apply and requires a 200 with the expected body.
func postRawOK(t *testing.T, base string, want []byte) {
	t.Helper()
	resp, err := http.Post(base+"/apply?model=m", "application/octet-stream", bytes.NewReader(make([]byte, 8)))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/apply through gateway: %d: %s", resp.StatusCode, out)
	}
	if !bytes.Equal(out, want) {
		t.Fatalf("/apply body: %d bytes %q, want %d bytes", len(out), out, len(want))
	}
}

// TestGatewayFailsOverOn503 pins the shed path: with one replica answering
// 503 and one healthy, every request lands a 200 — the 503 is retried away,
// never relayed — and each shed answer shows up in the failover totals.
func TestGatewayFailsOverOn503(t *testing.T) {
	payload := serve.EncodeRawVector([]float64{1, 2, 3})
	bad := newStubBackend(t, "m", "00000000000000aa", payload)
	good := newStubBackend(t, "m", "00000000000000aa", payload)
	bad.shed.Store(true) // readyz still 200: probe says ready, apply sheds

	g, ts := newGateway(t, gateway.Options{},
		gateway.Backend{Alias: "m", Addr: bad.addr()},
		gateway.Backend{Alias: "m", Addr: good.addr()})

	const reqs = 50
	for i := 0; i < reqs; i++ {
		postRawOK(t, ts.URL, payload)
	}
	// With p2c over two idle replicas the shedding one is tried first about
	// half the time; 50 requests make "never" astronomically unlikely.
	hits := bad.applyHits.Load()
	if hits == 0 {
		t.Fatal("shedding replica never attempted — failover path not exercised")
	}
	var failovers int64
	for _, b := range g.Stats().Backends {
		failovers += b.Failovers
	}
	if failovers != hits {
		t.Fatalf("failover total %d, want %d (one per shed answer)", failovers, hits)
	}
}

// TestGatewayFailsOverOnConnectError pins the dead-replica path: killing a
// backend after it was probed ready costs zero client-visible failures, the
// first connect error takes it out of rotation immediately (no waiting for
// the next probe sweep), and the fleet view reflects it.
func TestGatewayFailsOverOnConnectError(t *testing.T) {
	payload := serve.EncodeRawVector([]float64{4, 5, 6})
	dead := newStubBackend(t, "m", "00000000000000bb", payload)
	good := newStubBackend(t, "m", "00000000000000bb", payload)

	g, ts := newGateway(t, gateway.Options{},
		gateway.Backend{Alias: "m", Addr: dead.addr()},
		gateway.Backend{Alias: "m", Addr: good.addr()})
	deadAddr := dead.addr()
	dead.ts.Close() // probed ready, now gone — the gateway doesn't know yet

	for i := 0; i < 50; i++ {
		postRawOK(t, ts.URL, payload)
	}
	var deadStat *obs.GatewayBackendStat
	for i, b := range g.Stats().Backends {
		if b.Addr == deadAddr {
			deadStat = &g.Stats().Backends[i]
		}
	}
	if deadStat == nil {
		t.Fatal("dead backend missing from stats")
	}
	if deadStat.Ready {
		t.Fatal("dead backend still marked ready after connect errors")
	}
	if deadStat.Failovers == 0 {
		t.Fatal("no failover recorded for the dead backend")
	}
	// The request path marked it down on the first connect error, so later
	// picks skipped it: far fewer failovers than requests.
	if deadStat.Failovers > 5 {
		t.Fatalf("%d failovers for 50 requests — dead replica not being skipped after first error", deadStat.Failovers)
	}
}

// TestGatewayNeverRelaysPartialBody pins the buffering contract: a replica
// that aborts mid-body (headers sent, half the payload written, connection
// killed) must not leak a byte to the client — the gateway retries the full
// request elsewhere and the client sees only complete 200s.
func TestGatewayNeverRelaysPartialBody(t *testing.T) {
	payload := serve.EncodeRawVector([]float64{7, 8, 9, 10})
	flaky := newStubBackend(t, "m", "00000000000000cc", payload)
	good := newStubBackend(t, "m", "00000000000000cc", payload)
	flaky.partial.Store(true)

	g, ts := newGateway(t, gateway.Options{},
		gateway.Backend{Alias: "m", Addr: flaky.addr()},
		gateway.Backend{Alias: "m", Addr: good.addr()})

	for i := 0; i < 50; i++ {
		postRawOK(t, ts.URL, payload)
	}
	if flaky.applyHits.Load() == 0 {
		t.Fatal("flaky replica never attempted — mid-body retry path not exercised")
	}
	var failovers int64
	for _, b := range g.Stats().Backends {
		failovers += b.Failovers
	}
	if failovers == 0 {
		t.Fatal("mid-body aborts recorded no failovers")
	}
}

// TestGatewayReadyzAggregation pins fleet readiness: ready only while every
// alias has at least one ready replica, with the failing alias named, and
// draining after Close.
func TestGatewayReadyzAggregation(t *testing.T) {
	a := newStubBackend(t, "a", "0000000000000001", []byte("x"))
	b := newStubBackend(t, "b", "0000000000000002", []byte("x"))
	b.ready.Store(false)

	g, ts := newGateway(t, gateway.Options{},
		gateway.Backend{Alias: "a", Addr: a.addr()},
		gateway.Backend{Alias: "b", Addr: b.addr()})

	get := func() (int, map[string]any) {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		json.NewDecoder(resp.Body).Decode(&body)
		return resp.StatusCode, body
	}

	code, body := get()
	if code != http.StatusServiceUnavailable || body["ready"] != false {
		t.Fatalf("readyz with alias b down: %d %v, want 503/false", code, body)
	}
	if reason, _ := body["reason"].(string); !strings.Contains(reason, "b") {
		t.Fatalf("readyz reason %q does not name the failing alias", body["reason"])
	}

	b.ready.Store(true)
	g.ProbeOnce()
	if code, body = get(); code != http.StatusOK || body["ready"] != true {
		t.Fatalf("readyz with full fleet: %d %v, want 200/true", code, body)
	}

	g.Close()
	if code, body = get(); code != http.StatusServiceUnavailable || body["draining"] != true {
		t.Fatalf("readyz after Close: %d %v, want 503/draining", code, body)
	}
	// New applies are refused while draining.
	resp, err := http.Post(ts.URL+"/apply?model=a", "application/octet-stream", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("apply while draining: %d, want 503", resp.StatusCode)
	}
}

// TestGatewayModelsAggregation pins the fleet /models view and the version-
// skew flag: agreeing replicas report one consistent fingerprint; a rolling
// push (two fingerprints under one alias) flips consistent to false and
// raises the disagreement gauge.
func TestGatewayModelsAggregation(t *testing.T) {
	ms := obs.NewMetrics()
	a := newStubBackend(t, "m", "000000000000aaaa", []byte("x"))
	b := newStubBackend(t, "m", "000000000000aaaa", []byte("x"))
	g, ts := newGateway(t, gateway.Options{Metrics: ms},
		gateway.Backend{Alias: "m", Addr: a.addr()},
		gateway.Backend{Alias: "m", Addr: b.addr()})

	type row struct {
		Name        string `json:"name"`
		Replicas    int    `json:"replicas"`
		Ready       int    `json:"ready"`
		Fingerprint string `json:"fingerprint"`
		Consistent  bool   `json:"consistent"`
		Contacts    int    `json:"contacts"`
	}
	fetch := func() []row {
		resp, err := http.Get(ts.URL + "/models")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rows []row
		if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
			t.Fatal(err)
		}
		return rows
	}

	rows := fetch()
	if len(rows) != 1 || rows[0].Name != "m" || rows[0].Replicas != 2 || rows[0].Ready != 2 {
		t.Fatalf("models rows: %+v", rows)
	}
	if !rows[0].Consistent || rows[0].Fingerprint != "000000000000aaaa" {
		t.Fatalf("agreeing fleet: %+v, want consistent with the common fingerprint", rows[0])
	}
	// Contacts is the model's dimension, not a per-replica quantity: two
	// replicas of a 4-contact artifact is still a 4-contact model.
	if rows[0].Contacts != 4 {
		t.Fatalf("contacts = %d, want the model dimension 4 (not summed across replicas)", rows[0].Contacts)
	}

	// Mid-rolling-push: replica b now serves a different artifact version.
	b.setFingerprint("000000000000bbbb")
	// This gateway never started its background prober (ProbeOnce is
	// pre-Start only), so re-probing directly is safe.
	g.ProbeOnce()

	rows = fetch()
	if rows[0].Consistent || rows[0].Fingerprint != "" {
		t.Fatalf("disagreeing fleet: %+v, want consistent=false and no fleet fingerprint", rows[0])
	}
	var buf bytes.Buffer
	ms.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), `subgate_fingerprint_disagreement{alias="m"} 1`) {
		t.Fatalf("disagreement gauge not raised:\n%s", grepFamily(buf.String(), "subgate_fingerprint_disagreement"))
	}
}

// TestGatewayRoutingErrors pins the edges: unknown alias 404s naming the
// fleet, a missing name on a multi-alias fleet 400s, and a fleet whose
// replicas are all down answers 503, not a hang.
func TestGatewayRoutingErrors(t *testing.T) {
	a := newStubBackend(t, "a", "0000000000000001", []byte("x"))
	b := newStubBackend(t, "b", "0000000000000002", []byte("x"))
	g, ts := newGateway(t, gateway.Options{},
		gateway.Backend{Alias: "a", Addr: a.addr()},
		gateway.Backend{Alias: "b", Addr: b.addr()})

	status := func(url string) int {
		resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(nil))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status(ts.URL + "/apply?model=nope"); got != http.StatusNotFound {
		t.Fatalf("unknown alias: %d, want 404", got)
	}
	if got := status(ts.URL + "/apply"); got != http.StatusBadRequest {
		t.Fatalf("missing alias on multi-alias fleet: %d, want 400", got)
	}

	a.ready.Store(false)
	g.ProbeOnce()
	if got := status(ts.URL + "/apply?model=a"); got != http.StatusServiceUnavailable {
		t.Fatalf("all replicas down: %d, want 503", got)
	}
}

// TestGatewayMetricsFamilies pins that one served request populates every
// advertised family on /metrics — the contract the CI scrape check relies
// on.
func TestGatewayMetricsFamilies(t *testing.T) {
	ms := obs.NewMetrics()
	payload := serve.EncodeRawVector([]float64{1})
	a := newStubBackend(t, "m", "00000000000000dd", payload)
	_, ts := newGateway(t, gateway.Options{Metrics: ms}, gateway.Backend{Alias: "m", Addr: a.addr()})

	postRawOK(t, ts.URL, payload)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, family := range []string{
		gateway.MetricHTTPRequests,
		gateway.MetricLatencySeconds,
		gateway.MetricBackendReady,
		gateway.MetricBackendRequests,
		gateway.MetricBackendLatencySeconds,
		gateway.MetricFailovers,
		gateway.MetricFingerprintDisagreement,
	} {
		if !strings.Contains(string(text), family) {
			t.Errorf("/metrics missing family %s", family)
		}
	}
	if !strings.Contains(string(text), `subgate_backend_ready{alias="m",backend="`+a.addr()+`"} 1`) {
		t.Errorf("/metrics missing ready gauge for %s:\n%s", a.addr(), grepFamily(string(text), "subgate_backend_ready"))
	}
}

func grepFamily(text, family string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, family) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
