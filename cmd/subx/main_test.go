package main

import (
	"bytes"
	"encoding/json"
	"expvar"
	"flag"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"subcouple/internal/obs"
)

var update = flag.Bool("update", false, "regenerate testdata/report_example.json")

// goldenArgs is the fixed invocation behind the committed example report.
// Wall times and iteration counts vary run to run; the KEY SET — every
// phase, counter, histogram, config and result name — is the schema
// surface, and that is what this test pins.
var goldenArgs = []string{
	"-layout", "regular", "-n", "8", "-surface", "32",
	"-method", "lowrank", "-workers", "2",
}

const goldenPath = "testdata/report_example.json"

// reportKeys reduces a run report to its schema surface: sorted key lists
// per section plus the phase-name timeline.
func reportKeys(t *testing.T, data []byte) map[string][]string {
	t.Helper()
	var r obs.RunReport
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatal(err)
	}
	keys := map[string][]string{}
	for k := range top {
		keys["top"] = append(keys["top"], k)
	}
	for k := range r.Config {
		keys["config"] = append(keys["config"], k)
	}
	for k := range r.Results {
		keys["results"] = append(keys["results"], k)
	}
	for k := range r.Obs.Counters {
		keys["counters"] = append(keys["counters"], k)
	}
	for k := range r.Obs.Histograms {
		keys["histograms"] = append(keys["histograms"], k)
	}
	for _, p := range r.Obs.Phases {
		keys["phases"] = append(keys["phases"], p.Name)
	}
	if r.Numerics != nil {
		for k := range r.Numerics.Residuals {
			keys["residuals"] = append(keys["residuals"], k)
		}
		for k := range r.Numerics.Ranks {
			keys["ranks"] = append(keys["ranks"], k)
		}
		for k := range r.Numerics.Drops {
			keys["drops"] = append(keys["drops"], k)
		}
	}
	for _, v := range keys {
		sort.Strings(v)
	}
	return keys
}

func TestReportGoldenKeys(t *testing.T) {
	tmp := filepath.Join(t.TempDir(), "report.json")
	var out bytes.Buffer
	if err := run(append(goldenArgs, "-report", tmp), &out); err != nil {
		t.Fatalf("subx run: %v", err)
	}
	got, err := os.ReadFile(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateRunReport(got, true); err != nil {
		t.Fatalf("generated report invalid: %v", err)
	}

	if *update {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", goldenPath)
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing committed example (run with -update): %v", err)
	}
	if err := obs.ValidateRunReport(want, true); err != nil {
		t.Fatalf("committed example invalid: %v", err)
	}
	gotKeys, wantKeys := reportKeys(t, got), reportKeys(t, want)
	if !reflect.DeepEqual(gotKeys, wantKeys) {
		t.Fatalf("report schema drifted from %s (rerun with -update if intentional)\n got: %v\nwant: %v",
			goldenPath, gotKeys, wantKeys)
	}
}

// TestReportDeterministicResults pins the run-to-run stable part of the
// report: two identical invocations must agree exactly on config and
// results (extraction is deterministic; only timings may differ).
func TestReportDeterministicResults(t *testing.T) {
	section := func(path string) (config, results json.RawMessage) {
		var out bytes.Buffer
		if err := run(append(goldenArgs, "-report", path), &out); err != nil {
			t.Fatalf("subx run: %v", err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var top struct {
			Config  json.RawMessage `json:"config"`
			Results json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(data, &top); err != nil {
			t.Fatal(err)
		}
		return top.Config, top.Results
	}
	dir := t.TempDir()
	c1, r1 := section(filepath.Join(dir, "a.json"))
	c2, r2 := section(filepath.Join(dir, "b.json"))
	if !bytes.Equal(c1, c2) {
		t.Fatalf("config sections differ:\n%s\n%s", c1, c2)
	}
	if !bytes.Equal(r1, r2) {
		t.Fatalf("results sections differ:\n%s\n%s", r1, r2)
	}
}

// TestTraceOutput runs a parallel extraction with -trace and checks the
// written file is a loadable Chrome trace: named main/worker tracks (at
// least three rows under -workers 4), per-square spans from the
// sparsification method, and solve spans carrying numerical-health args.
func TestTraceOutput(t *testing.T) {
	tmp := filepath.Join(t.TempDir(), "trace.json")
	var out bytes.Buffer
	args := []string{
		"-layout", "alternating", "-n", "16", "-surface", "64",
		"-method", "lowrank", "-workers", "4", "-trace", tmp,
	}
	if err := run(args, &out); err != nil {
		t.Fatalf("subx run: %v", err)
	}
	data, err := os.ReadFile(tmp)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if got := doc.OtherData["spans_dropped"]; got != float64(0) {
		t.Fatalf("spans_dropped = %v, want 0", got)
	}
	tracks := map[int]bool{}
	spanNames := map[string]int{}
	solveArgs := false
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		tracks[e.Tid] = true
		spanNames[e.Name]++
		if e.Name == "bem/solve" {
			if _, ok := e.Args["cg_iters"]; ok {
				if _, ok := e.Args["final_rel"]; ok {
					solveArgs = true
				}
			}
		}
	}
	if len(tracks) < 3 {
		t.Errorf("trace has %d tracks, want >= 3 under -workers 4", len(tracks))
	}
	for _, name := range []string{"core/extract", "lowrank/row_basis", "lowrank/sweep_square", "bem/solve"} {
		if spanNames[name] == 0 {
			t.Errorf("no %q spans in trace (have %v)", name, spanNames)
		}
	}
	if !solveArgs {
		t.Errorf("no bem/solve span carries cg_iters/final_rel args")
	}
}

// TestWaveletTraceHasPerSquareSpans covers the other method's
// instrumentation: the wavelet path must emit per-square split/recombine
// spans and combined-extraction class spans.
func TestWaveletTraceHasPerSquareSpans(t *testing.T) {
	tmp := filepath.Join(t.TempDir(), "trace.json")
	var out bytes.Buffer
	args := []string{
		"-layout", "regular", "-n", "16", "-surface", "64",
		"-method", "wavelet", "-workers", "4", "-trace", tmp,
	}
	if err := run(args, &out); err != nil {
		t.Fatalf("subx run: %v", err)
	}
	data, err := os.ReadFile(tmp)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	spanNames := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			spanNames[e.Name]++
		}
	}
	for _, name := range []string{"wavelet/split", "wavelet/recombine", "wavelet/class"} {
		if spanNames[name] == 0 {
			t.Errorf("no %q spans in wavelet trace (have %v)", name, spanNames)
		}
	}
}

// TestExpvarSnapshotIsLive pins the -pprof expvar contract: the published
// "subcouple" variable re-snapshots the current registry on every read, and
// follows registry swaps (run() is re-entered by tests and long runs want
// live progress, not the state at publish time).
func TestExpvarSnapshotIsLive(t *testing.T) {
	ms := obs.NewMetrics()
	publishExpvars(ms)
	v := expvar.Get("subcouple")
	if v == nil {
		t.Fatal("subcouple expvar not published")
	}
	read := func() obs.Snapshot {
		var s obs.Snapshot
		if err := json.Unmarshal([]byte(v.String()), &s); err != nil {
			t.Fatalf("expvar value does not parse: %v", err)
		}
		return s
	}
	if got := read().Counters["solver/solves"]; got != 0 {
		t.Fatalf("fresh registry shows %d solves", got)
	}
	ms.Event("solver/solves").Add(5)
	if got := read().Counters["solver/solves"]; got != 5 {
		t.Fatalf("scrape after recording shows %d solves, want 5 (snapshot not live)", got)
	}
	// A second publish (a later run()) must swap the backing registry
	// without panicking on duplicate registration.
	ms2 := obs.NewMetrics()
	ms2.Event("solver/solves").Add(7)
	publishExpvars(ms2)
	if got := read().Counters["solver/solves"]; got != 7 {
		t.Fatalf("scrape after registry swap shows %d solves, want 7", got)
	}
}

// TestPprofMetricsIsLive pins the -pprof /metrics contract without a
// listener: the handler registered on the default mux serves the current
// registry in Prometheus text format, batch events included, and follows
// registry swaps like the expvar does.
func TestPprofMetricsIsLive(t *testing.T) {
	scrape := func() string {
		rr := httptest.NewRecorder()
		http.DefaultServeMux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if rr.Code != http.StatusOK {
			t.Fatalf("GET /metrics: status %d", rr.Code)
		}
		return rr.Body.String()
	}
	ms := obs.NewMetrics()
	publishExpvars(ms)
	solves := ms.Event("solver/solves")
	solves.Add(5)
	const want = `subcouple_events_total{name="solver/solves"} 5` + "\n"
	if body := scrape(); !strings.Contains(body, want) {
		t.Fatalf("/metrics lacks %q:\n%s", want, body)
	}
	ms2 := obs.NewMetrics()
	ms2.Event("solver/solves").Add(2)
	publishExpvars(ms2)
	if body := scrape(); !strings.Contains(body, `subcouple_events_total{name="solver/solves"} 2`) {
		t.Fatalf("/metrics did not follow the registry swap:\n%s", body)
	}
}

// TestPprofBindFailsFast is the regression test for the -pprof bind bug:
// the address used to be bound inside the serving goroutine, so a bad or
// busy address was only logged after the run had started (and the log line
// could race process exit) while run() still returned nil. Binding must now
// happen synchronously and fail the run with a real error.
func TestPprofBindFailsFast(t *testing.T) {
	// Occupy a port so the run's own bind must fail with EADDRINUSE.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var out bytes.Buffer
	args := []string{"-layout", "regular", "-n", "4", "-surface", "16"}
	err = run(append(args, "-pprof", ln.Addr().String()), &out)
	if err == nil {
		t.Fatal("busy -pprof address: run returned nil (bind failure only logged asynchronously)")
	}
	if !strings.Contains(err.Error(), "pprof") {
		t.Fatalf("bind error does not name pprof: %v", err)
	}

	// A malformed address (port out of range — no DNS involved) fails too.
	if err := run(append(args, "-pprof", "127.0.0.1:99999"), &out); err == nil {
		t.Fatal("malformed -pprof address accepted")
	}

	// And a bindable address still works end to end.
	if err := run(append(args, "-pprof", "127.0.0.1:0"), &out); err != nil {
		t.Fatalf("free -pprof address: %v", err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	for _, c := range []struct {
		args []string
		want string // a substring the error must contain; "" = any error
	}{
		{[]string{"-layout", "nope"}, ""},
		{[]string{"-solver", "nope", "-n", "4", "-surface", "16"}, ""},
		{[]string{"-load", "/nonexistent/model.scm"}, ""},
		// A loaded model spends no solves, so there is no extraction to
		// report on: rejected before any work.
		{[]string{"-load", "/nonexistent/model.scm", "-report", filepath.Join(t.TempDir(), "r.json")}, "-report"},
	} {
		err := run(c.args, &out)
		if err == nil {
			t.Errorf("args %v: expected error", c.args)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("args %v: error %q does not name %s", c.args, err, c.want)
		}
	}
}

// fingerprintLine extracts the "apply fingerprint" value from subx output.
func fingerprintLine(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "apply fingerprint:") {
			return strings.TrimSpace(strings.TrimPrefix(line, "apply fingerprint:"))
		}
	}
	t.Fatalf("no apply fingerprint in output:\n%s", out)
	return ""
}

// TestSaveLoadRoundTrip is the CLI face of the serving guarantee: an
// artifact written by -save and reloaded with -load reports zero substrate
// solves and an identical apply fingerprint (so serving is bitwise faithful),
// for both sparsification methods.
func TestSaveLoadRoundTrip(t *testing.T) {
	for _, method := range []string{"lowrank", "wavelet"} {
		t.Run(method, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "model.scm")
			var saveOut bytes.Buffer
			args := []string{"-layout", "regular", "-n", "8", "-surface", "32", "-method", method}
			if err := run(append(args, "-save", path), &saveOut); err != nil {
				t.Fatalf("save run: %v", err)
			}
			savedFP := fingerprintLine(t, saveOut.String())

			var loadOut bytes.Buffer
			if err := run([]string{"-load", path}, &loadOut); err != nil {
				t.Fatalf("load run: %v", err)
			}
			if got := fingerprintLine(t, loadOut.String()); got != savedFP {
				t.Fatalf("fingerprint changed across save/load: %s vs %s\nsave output:\n%s\nload output:\n%s",
					savedFP, got, saveOut.String(), loadOut.String())
			}
			if !strings.Contains(loadOut.String(), "black-box solves:  0 (loaded model") {
				t.Fatalf("load run does not report zero solves:\n%s", loadOut.String())
			}

			// The serving path has no solver; flags needing one must be refused.
			if err := run([]string{"-load", path, "-check"}, &loadOut); err == nil {
				t.Error("-load with -check: expected error")
			}
			if err := run([]string{"-load", path, "-probes", "3"}, &loadOut); err == nil {
				t.Error("-load with -probes: expected error")
			}

			// A corrupted artifact must be rejected, not served.
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x01
			bad := filepath.Join(t.TempDir(), "bad.scm")
			if err := os.WriteFile(bad, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := run([]string{"-load", bad}, &loadOut); err == nil {
				t.Error("corrupt artifact accepted by -load")
			}
		})
	}
}
