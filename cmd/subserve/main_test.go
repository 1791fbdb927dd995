package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"subcouple/internal/core"
	"subcouple/internal/experiments"
	"subcouple/internal/geom"
	"subcouple/internal/model"
	"subcouple/internal/obs"
	"subcouple/internal/serve"
	"subcouple/internal/serve/registry"
	"subcouple/internal/solver"
)

// saveTestArtifact extracts a small model and writes it as a .scm artifact.
func saveTestArtifact(t *testing.T, name string) (string, *model.Model) {
	t.Helper()
	raw := geom.AlternatingGrid(32, 32, 8, 8, 1, 3) // 64 contacts
	layout, maxLevel := core.Prepare(raw, 4)
	g := experiments.SyntheticG(layout)
	res, err := core.Extract(solver.NewDense(g), layout, core.Options{
		Method: core.LowRank, MaxLevel: maxLevel, ThresholdFactor: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := model.Encode(res.Model())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, res.Model()
}

func TestRunRejectsBadInvocations(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil || !strings.Contains(err.Error(), "model") {
		t.Fatalf("no models: err %v, want a 'pass -model' error", err)
	}
	if err := run([]string{"-model", "/nonexistent/m.scm"}, &out); err == nil {
		t.Fatal("missing artifact accepted")
	}

	// A busy address must fail startup synchronously with a real error, not
	// be logged later from a goroutine (same bind discipline as subx -pprof).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	path, _ := saveTestArtifact(t, "m.scm")
	if err := run([]string{"-model", path, "-addr", ln.Addr().String()}, &out); err == nil {
		t.Fatal("busy -addr accepted")
	}
}

// TestDaemonLifecycle runs the real daemon end to end: load an artifact,
// serve concurrent /apply requests bitwise-faithfully, then deliver an
// actual SIGTERM and require run() to drain and return nil (the clean-exit
// contract CI's `kill -TERM && wait` asserts), writing a valid run report.
func TestDaemonLifecycle(t *testing.T) {
	path, m := saveTestArtifact(t, "lifecycle.scm")
	reportPath := filepath.Join(t.TempDir(), "serve-report.json")

	addrCh := make(chan net.Addr, 1)
	onListen = func(a net.Addr) { addrCh <- a }
	defer func() { onListen = nil }()

	runErr := make(chan error, 1)
	go func() {
		runErr <- run([]string{
			"-model", path, "-addr", "127.0.0.1:0",
			"-pool", "2", "-report", reportPath,
		}, io.Discard)
	}()
	var addr net.Addr
	select {
	case addr = <-addrCh:
	case err := <-runErr:
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never bound its listener")
	}
	base := "http://" + addr.String()

	// Liveness and readiness.
	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(base + ep)
		if err != nil {
			t.Fatalf("%s: %v", ep, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", ep, resp.StatusCode)
		}
	}

	// Concurrent applies must match a direct private-engine apply bitwise.
	eng := model.NewEngine(m)
	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			x := make([]float64, m.N)
			for i := range x {
				x[i] = float64((i*13+c)%7) - 3
			}
			body, _ := json.Marshal(map[string]any{"x": x})
			resp, err := http.Post(base+"/apply", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[c] = err
				return
			}
			defer resp.Body.Close()
			out, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				errs[c] = fmt.Errorf("status %d: %s", resp.StatusCode, out)
				return
			}
			var ar struct {
				Y []float64 `json:"y"`
			}
			if err := json.Unmarshal(out, &ar); err != nil {
				errs[c] = err
				return
			}
			want := make([]float64, m.N)
			eng2 := model.NewEngine(m)
			eng2.ApplyInto(want, x)
			for i := range want {
				if ar.Y[i] != want[i] {
					errs[c] = fmt.Errorf("y[%d] = %v, want %v (not bitwise identical)", i, ar.Y[i], want[i])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}

	// The served fingerprint must equal a direct engine's.
	resp, err := http.Get(base + "/fingerprint")
	if err != nil {
		t.Fatal(err)
	}
	var fr map[string]string
	json.NewDecoder(resp.Body).Decode(&fr)
	resp.Body.Close()
	if want := fmt.Sprintf("%016x", eng.Fingerprint(1)); fr["fingerprint"] != want {
		t.Fatalf("served fingerprint %s, want %s", fr["fingerprint"], want)
	}

	// The scrape carries the serving families with the traffic just driven,
	// and the expvar mirror publishes the same registry.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	expo, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	for _, want := range []string{
		serve.MetricHTTPRequests + `{code="2xx",endpoint="apply"} ` + fmt.Sprint(clients),
		serve.MetricLatencySeconds + `_count{endpoint="apply"} ` + fmt.Sprint(clients),
		registry.MetricQueueDepth + `{model="lifecycle"} 0`,
		registry.MetricPoolInUse + `{model="lifecycle"} 0`,
	} {
		if !strings.Contains(string(expo), want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	resp, err = http.Get(base + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars struct {
		Metrics obs.MetricsSnapshot `json:"subserve_metrics"`
	}
	err = json.NewDecoder(resp.Body).Decode(&vars)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(vars.Metrics.Families) == 0 {
		t.Error("expvar mirror subserve_metrics is empty")
	}

	// Real graceful shutdown: SIGTERM to ourselves; run() must drain and
	// return nil.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("SIGTERM exit: %v, want clean nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}

	// The shutdown report exists, validates, and records the traffic.
	data, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatalf("run report not written: %v", err)
	}
	if err := obs.ValidateRunReport(data, false); err != nil {
		t.Fatalf("run report invalid: %v", err)
	}
	var rep obs.RunReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Tool != "subserve" {
		t.Fatalf("report tool %q", rep.Tool)
	}
	// The daemon records into its metrics registry only, so the obs section
	// is empty (and holds no substrate solves).
	if len(rep.Obs.Phases)+len(rep.Obs.Counters)+len(rep.Obs.Histograms) != 0 {
		t.Fatalf("report obs section not empty: %+v", rep.Obs)
	}
	// The serving block captured the same traffic: per-endpoint status-class
	// counts and ordered latency quantiles, with the gauges drained to zero.
	if rep.Serving == nil {
		t.Fatal("report has no serving block")
	}
	if rep.Serving.QueueDepth != 0 || rep.Serving.PoolInUse != 0 {
		t.Fatalf("post-drain serving gauges: depth %d, in use %d, want 0/0",
			rep.Serving.QueueDepth, rep.Serving.PoolInUse)
	}
	apply := rep.Serving.Endpoints["apply"]
	if apply.Requests["2xx"] != clients {
		t.Fatalf("serving block apply/2xx = %d, want %d", apply.Requests["2xx"], clients)
	}
	if apply.LatencyCount != clients || apply.LatencyP50Seconds > apply.LatencyP99Seconds {
		t.Fatalf("serving block apply latency malformed: %+v", apply)
	}
}
