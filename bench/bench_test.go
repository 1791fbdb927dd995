package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"subcouple/internal/core"
	"subcouple/internal/experiments"
	"subcouple/internal/model"
	"subcouple/internal/obs"
	"subcouple/internal/serve"
	"subcouple/internal/solver"
)

// testConfig shrinks every workload to the 64-contact grid with a 1 s
// timed phase.
func testConfig(t *testing.T, binDir string, traced bool) *config {
	cfg := &config{
		seed:     7,
		timed:    time.Second,
		warmup:   200 * time.Millisecond,
		direct:   400 * time.Millisecond,
		binDir:   binDir,
		runDir:   t.TempDir(),
		extractN: 64,
		fleetN:   64,
	}
	if traced {
		cfg.tracer = obs.NewTracer(0)
	}
	return cfg
}

// buildDaemons builds subserve and subgate from this checkout.
func buildDaemons(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/subserve", "./cmd/subgate")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building the daemons: %v\n%s", err, out)
	}
	return dir
}

// TestWorkloadsSmoke runs every workload traced, so both metric sets and
// the trace are produced, and checks that nothing failed.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons")
	}
	binDir := buildDaemons(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(t, binDir, true)
			rep := newReport()
			if err := workloads[name](context.Background(), cfg, rep); err != nil {
				rep.print(os.Stderr)
				t.Fatal(err)
			}
			if err := rep.write(cfg); err != nil {
				t.Fatal(err)
			}
			for _, set := range [][]metricDef{endToEnd, perLayer} {
				line := rep.result(set, io.Discard)
				if !line.Correct || line.Failed != 0 {
					rep.print(os.Stderr)
					t.Fatalf("correct=%v failed=%d", line.Correct, line.Failed)
				}
				for _, d := range set {
					v, ok := line.Metrics[d.name]
					if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("metric %s = %+v, present %v", d.name, v, ok)
					}
				}
			}
			for _, d := range endToEnd {
				if v := rep.metrics[d.name]; !(v > 0) {
					t.Errorf("end-to-end metric %s = %g, want > 0", d.name, v)
				}
			}
			data, err := os.ReadFile(filepath.Join(cfg.runDir, "trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var trace struct {
				TraceEvents []json.RawMessage `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &trace); err != nil || len(trace.TraceEvents) == 0 {
				t.Fatalf("trace.json: %v, %d events", err, len(trace.TraceEvents))
			}
		})
	}
}

// TestOneULPOffFails serves answers that differ from the engine's in one
// bit of one entry and checks that every request counts as failed, while
// exact answers all pass.
func TestOneULPOffFails(t *testing.T) {
	cfg := testConfig(t, "", false)
	c, err := caseFor(64)
	if err != nil {
		t.Fatal(err)
	}
	arts, err := prepareArtifacts(context.Background(), cfg, newReport(), c, kernelMatrix(c.Layout), core.LowRank)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := newTraffic(cfg, cfg.runDir, arts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.Decode(arts[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, nudge := range []bool{false, true} {
		var mu sync.Mutex // the engine's scratch buffers serve one apply at a time
		e := model.NewEngine(m)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, _ := io.ReadAll(r.Body)
			x, err := decodeAnswer(body, true)
			if err != nil || len(x) != m.N {
				http.Error(w, "bad body", http.StatusBadRequest)
				return
			}
			y := make([]float64, m.N)
			mu.Lock()
			e.ApplyInto(y, x)
			mu.Unlock()
			if nudge {
				y[len(y)/2] = math.Nextafter(y[len(y)/2], math.Inf(1))
			}
			w.Write(serve.EncodeRawVector(y))
		}))
		ph := &phase{}
		runLoad(context.Background(), cfg, &load{url: srv.URL, raw: true, tr: tr}, 200*time.Millisecond, ph)
		srv.Close()
		if ph.Attempted == 0 {
			t.Fatal("no requests sent")
		}
		if want := map[bool]int{false: 0, true: ph.Attempted}[nudge]; ph.Failed != want {
			t.Errorf("nudge=%v: %d of %d failed, want %d", nudge, ph.Failed, ph.Attempted, want)
		}
	}
}

// TestTimedSolverChangesNothing extracts with and without the timing
// wrapper, on a natively batching black box (BEM) and a plain one (dense
// kernel), and compares the solve counts and the models' fingerprints.
func TestTimedSolverChangesNothing(t *testing.T) {
	c, err := caseFor(64)
	if err != nil {
		t.Fatal(err)
	}
	bemSolver, err := experiments.BemSolver(c)
	if err != nil {
		t.Fatal(err)
	}
	for name, bb := range map[string]solver.Solver{"bem": bemSolver, "kernel": solver.NewDense(kernelMatrix(c.Layout))} {
		for _, m := range []core.Method{core.LowRank, core.Wavelet} {
			opt := core.Options{Method: m, MaxLevel: c.MaxLevel, Workers: extractWorkers}
			plain, err := core.Extract(bb, c.Layout, opt)
			if err != nil {
				t.Fatal(err)
			}
			ts := newTimedSolver(bb)
			timed, _, err := extractOnce(ts, c, m, nil)
			if err != nil {
				t.Fatal(err)
			}
			busy, calls, rhs := ts.take()
			if timed.Solves != plain.Solves || rhs != plain.Solves || calls == 0 || busy <= 0 {
				t.Errorf("%s/%v: solves %d timed vs %d plain; wrapper saw %d calls, %d rhs, %v",
					name, m, timed.Solves, plain.Solves, calls, rhs, busy)
			}
			if a, b := model.FingerprintOf(timed.Model(), 1), model.FingerprintOf(plain.Model(), 1); a != b {
				t.Errorf("%s/%v: fingerprint %016x timed vs %016x plain", name, m, a, b)
			}
		}
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json declares exactly the
// workloads this program runs and the metrics it reports, with the same
// units, directions and bounds.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if got, want := names, workloadNames(); len(got) != len(want) {
		t.Errorf("workloads %v, program runs %v", got, want)
	} else {
		for _, n := range got {
			if _, ok := workloads[n]; !ok {
				t.Errorf("BENCHMARK.json workload %q is not one the program runs", n)
			}
		}
	}
	for _, set := range []struct {
		declared []declared
		defs     []metricDef
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(set.declared) != len(set.defs) {
			t.Errorf("BENCHMARK.json declares %d metrics, program reports %d", len(set.declared), len(set.defs))
			continue
		}
		for i, d := range set.defs {
			if got, want := set.declared[i], (declared{d.name, d.unit, d.better, d.bound}); got != want {
				t.Errorf("metric %d: BENCHMARK.json %+v, program %+v", i, got, want)
			}
		}
	}
}
