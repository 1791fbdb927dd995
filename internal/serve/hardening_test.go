package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"subcouple/internal/core"
	"subcouple/internal/model"
	"subcouple/internal/obs"
	"subcouple/internal/serve"
	"subcouple/internal/serve/registry"
)

// privateModel returns a deep copy of the cached test model, safe to corrupt
// in place without poisoning other tests.
func privateModel(t *testing.T, method core.Method) *model.Model {
	t.Helper()
	data, err := model.Encode(testModel(t, method))
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFlushPanicRecovery pins the batcher's panic backstop: a request that
// makes the engine panic mid-flush (simulated here by corrupting the shared
// model's structure) must come back as an error — not kill the daemon, not
// strand the checked-out engine. With a one-engine pool, the follow-up apply
// both proves the engine returned to the pool and that it still computes
// bitwise-correct results.
func TestFlushPanicRecovery(t *testing.T) {
	m := privateModel(t, core.LowRank)
	ms := obs.NewMetrics()
	pool := registry.NewPool(m, 1, nil)
	b := registry.NewBatcher(pool, 4, 1, nil)
	b.SetMetrics(ms, "m")
	defer b.Close()
	// The held engine queues both requests below, so they fuse into one
	// flush and exercise a width-2 panel, not just the k == 1 case.
	release := holdEngines(t, pool)
	defer release()

	ctx := context.Background()
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = b.Apply(ctx, make([]float64, m.N), probeVec(m.N, i), false)
		}(i)
	}
	waitQueueDepth(t, b, len(errs))
	saved := m.Gw.ColIdx[0]
	m.Gw.ColIdx[0] = -1 // poison: the next apply indexes out of range
	release()
	wg.Wait()
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "apply panic") {
			t.Fatalf("poisoned request %d: err = %v, want an apply-panic error", i, err)
		}
	}
	if bs := ms.Histogram(registry.MetricBatchSize, "", "model", "m"); bs.Count() != 1 || bs.Sum() != 2 {
		t.Fatalf("poisoned requests flushed as %d batches carrying %v, want one width-2 panel", bs.Count(), bs.Sum())
	}

	m.Gw.ColIdx[0] = saved
	y := make([]float64, m.N)
	if err := b.Apply(ctx, y, probeVec(m.N, 3), false); err != nil {
		t.Fatalf("apply after recovered panic: %v (engine leaked from the pool?)", err)
	}
	bitwiseEqual(t, "apply after recovered panic", y, direct(m, probeVec(m.N, 3), false))
}

// TestColumnAndFingerprintPanicRecovery pins the handler-side hardening: a
// panic inside /column or /fingerprint answers 500 and returns the engine to
// the pool. The pool has one engine, so the successful requests after the
// restore are only possible if neither panic leaked it.
func TestColumnAndFingerprintPanicRecovery(t *testing.T) {
	m := testModel(t, core.LowRank)
	s, ts, name := newTestServer(t, m, serve.Options{PoolSize: 1, Timeout: 10 * time.Second})

	// newTestServer serves a private decode of the artifact; corrupt that.
	served := s.Model(name)
	saved := served.Gw.ColIdx[0]
	served.Gw.ColIdx[0] = -1

	get := func(url string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if status, body := get("/column?model=" + name + "&j=3"); status != http.StatusInternalServerError ||
		!strings.Contains(body, "panic") {
		t.Fatalf("/column on corrupted model: %d %q, want 500 naming the panic", status, body)
	}
	if status, body := get("/fingerprint?model=" + name); status != http.StatusInternalServerError ||
		!strings.Contains(body, "panic") {
		t.Fatalf("/fingerprint on corrupted model: %d %q, want 500 naming the panic", status, body)
	}

	served.Gw.ColIdx[0] = saved
	status, body := get("/column?model=" + name + "&j=3")
	if status != http.StatusOK {
		t.Fatalf("/column after restore: %d %q (engine leaked from the pool?)", status, body)
	}
	var ar struct {
		Y []float64 `json:"y"`
	}
	if err := json.Unmarshal([]byte(body), &ar); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, served.N)
	model.NewEngine(served).ColumnInto(want, 3, false)
	bitwiseEqual(t, "column after recovered panic", ar.Y, want)
	if status, _ := get("/fingerprint?model=" + name); status != http.StatusOK {
		t.Fatalf("/fingerprint after restore: %d", status)
	}
}

// TestThresholdedCoalescing pins that thresholded batches now flush through
// the panel kernels bitwise-identically: Gwt requests queued behind a busy
// engine fuse (the batch-size histogram proves it) and every response
// equals the single-RHS reference.
func TestThresholdedCoalescing(t *testing.T) {
	const clients = 6
	m := testModel(t, core.LowRank)
	ms := obs.NewMetrics()
	s := serve.New(serve.Options{
		PoolSize: 1, MaxBatch: clients, Workers: 2, Metrics: ms,
	})
	if err := s.AddModel("m", m); err != nil {
		t.Fatal(err)
	}
	s.SetReady(true)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	release := holdServerEngines(t, s, "m")
	defer release()

	var wg sync.WaitGroup
	results := make([][]float64, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = postJSON(t, ts, "m", probeVec(m.N, c), true)
		}(c)
	}
	waitQueueDepth(t, s, clients)
	release()
	wg.Wait()
	for c := 0; c < clients; c++ {
		bitwiseEqual(t, fmt.Sprintf("thresholded client %d", c), results[c], direct(m, probeVec(m.N, c), true))
	}
	requireCoalesced(t, ms, "m", clients)
}

// TestColumnMetricsOverHTTP pins the serving-path telemetry of a column end
// to end: one /column request lands once in the engine's column kernel
// histogram and once in the endpoint's 2xx counter.
func TestColumnMetricsOverHTTP(t *testing.T) {
	m := testModel(t, core.LowRank)
	ms := obs.NewMetrics()
	s, ts, name := newTestServer(t, m, serve.Options{PoolSize: 1, Metrics: ms})

	resp, err := http.Get(ts.URL + "/column?model=" + name + "&j=5")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/column: %d", resp.StatusCode)
	}
	ts.Close() // waits out the handler, so the request is counted
	column := ms.Histogram(model.MetricApplySeconds, "", "kind", "column", "mode", "exact")
	if got := column.Count(); got != 1 {
		t.Fatalf(`engine kind="column" samples = %d, want 1`, got)
	}
	if got := s.ServingStats().Endpoints["column"].Requests["2xx"]; got != 1 {
		t.Fatalf("column 2xx count = %d, want 1", got)
	}
}
