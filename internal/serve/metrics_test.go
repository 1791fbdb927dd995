package serve_test

import (
	"bytes"
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
	"subcouple/internal/obs"
	"subcouple/internal/serve"
	"subcouple/internal/serve/registry"
)

// scrape GETs /metrics and returns the exposition text.
func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d: %s", resp.StatusCode, body)
	}
	return string(body)
}

// getReadyz GETs /readyz and decodes the JSON body.
func getReadyz(t *testing.T, ts *httptest.Server) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("/readyz body is not JSON: %v", err)
	}
	return resp.StatusCode, body
}

// waitDraining polls /readyz until it reports 503 and returns that body.
func waitDraining(t *testing.T, ts *httptest.Server) map[string]any {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		if status, body := getReadyz(t, ts); status == http.StatusServiceUnavailable {
			return body
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never reported the drain")
		}
	}
}

// TestMetricsDoNotChangeOutputs extends the observability-neutrality
// invariant to the serve path: with the metrics registry recording every
// layer, a mixed-codec request stream is answered bitwise identically to a
// direct engine.
func TestMetricsDoNotChangeOutputs(t *testing.T) {
	const clients = 6
	m := testModel(t, core.LowRank)
	s := serve.New(serve.Options{
		PoolSize: 2, MaxBatch: 4, Workers: 2, Metrics: obs.NewMetrics(),
	})
	if err := s.AddModel("m", m); err != nil {
		t.Fatal(err)
	}
	s.SetReady(true)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	results := make([][]float64, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if c%2 == 0 {
				results[c] = postJSON(t, ts, "m", probeVec(m.N, c), false)
			} else {
				results[c] = postRaw(t, ts, "m", probeVec(m.N, c), c%3 == 0)
			}
		}(c)
	}
	wg.Wait()
	for c := 0; c < clients; c++ {
		bitwiseEqual(t, fmt.Sprintf("client %d vs direct", c),
			results[c], direct(m, probeVec(m.N, c), c%2 == 1 && c%3 == 0))
	}
}

// TestStatusClassCounters pins the contract that replaced the lone
// serve/errors counter: a 2xx apply, a 400 dimension error and a
// recovered-panic 500 land in three different per-endpoint series, seen
// alike by the exposition and the report's serving block (and the panic
// answers 500, not 400).
func TestStatusClassCounters(t *testing.T) {
	m := privateModel(t, core.LowRank)
	ms := obs.NewMetrics()
	s := serve.New(serve.Options{PoolSize: 1, Metrics: ms, Timeout: 10 * time.Second})
	if err := s.AddModel("m", m); err != nil {
		t.Fatal(err)
	}
	s.SetReady(true)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	post := func(x []float64) (int, string) {
		t.Helper()
		body, _ := json.Marshal(map[string]any{"model": "m", "x": x})
		resp, err := http.Post(ts.URL+"/apply", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(out)
	}

	if status, body := post(probeVec(m.N, 0)); status != http.StatusOK {
		t.Fatalf("good apply: %d %s", status, body)
	}
	if status, body := post(probeVec(m.N-1, 0)); status != http.StatusBadRequest {
		t.Fatalf("short apply: %d %s, want 400", status, body)
	}
	// Poison the served model so the flush panics; the backstop must map
	// the recovered panic to a 500 — a server fault — not a 400.
	saved := m.Gw.ColIdx[0]
	m.Gw.ColIdx[0] = -1
	status, body := post(probeVec(m.N, 1))
	m.Gw.ColIdx[0] = saved
	if status != http.StatusInternalServerError || !strings.Contains(body, "apply panic") {
		t.Fatalf("poisoned apply: %d %q, want 500 naming the panic", status, body)
	}

	ts.Close() // waits out the handlers, so every request is counted
	var expo strings.Builder
	ms.WritePrometheus(&expo)
	for _, class := range []string{"2xx", "4xx", "5xx"} {
		if want := serve.MetricHTTPRequests + `{code="` + class + `",endpoint="apply"} 1`; !strings.Contains(expo.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	apply := s.ServingStats().Endpoints["apply"]
	for class, want := range map[string]int64{"2xx": 1, "4xx": 1, "5xx": 1} {
		if apply.Requests[class] != want {
			t.Errorf("registry apply/%s = %d, want %d", class, apply.Requests[class], want)
		}
	}
	if apply.LatencyCount != 3 {
		t.Errorf("apply latency count %d, want 3", apply.LatencyCount)
	}
}

// TestMetricsExposition drives real traffic through every instrumented layer
// and requires the scrape to carry the key families: per-endpoint request
// counters and latency histograms, batcher queue depth / batch size /
// window wait, pool gauges, and engine kernel durations.
func TestMetricsExposition(t *testing.T) {
	const clients = 4
	m := testModel(t, core.LowRank)
	ms := obs.NewMetrics()
	s := serve.New(serve.Options{
		PoolSize: 2, MaxBatch: clients, Workers: 2, Metrics: ms,
	})
	if err := s.AddModel("m", m); err != nil {
		t.Fatal(err)
	}
	s.SetReady(true)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			postJSON(t, ts, "m", probeVec(m.N, c), false)
		}(c)
	}
	wg.Wait()
	resp, err := http.Get(ts.URL + "/column?model=m&j=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	want := []string{
		"# TYPE " + serve.MetricHTTPRequests + " counter",
		serve.MetricHTTPRequests + `{code="2xx",endpoint="apply"} ` + fmt.Sprint(clients),
		serve.MetricHTTPRequests + `{code="2xx",endpoint="column"} 1`,
		"# TYPE " + serve.MetricLatencySeconds + " histogram",
		serve.MetricLatencySeconds + `_count{endpoint="apply"} ` + fmt.Sprint(clients),
		registry.MetricQueueDepth + `{model="m"} 0`,
		registry.MetricBatchSize + `_count{model="m"}`,
		registry.MetricWindowWaitSeconds + `_count{model="m"}`,
		registry.MetricBatchFlushes + `{model="m"}`,
		registry.MetricPoolInUse + `{model="m"} 0`,
		"# TYPE " + registry.MetricPoolWaitSeconds + " histogram",
		registry.MetricPoolTimeouts + `{model="m"} 0`,
		`subcouple_engine_apply_seconds_count{kind="column",mode="exact"} 1`,
	}
	// instrument counts a request only after its handler returns, which can
	// be after the client has read the whole response: scrape until every
	// expected series is there.
	var out string
	var missing []string
	for deadline := time.Now().Add(10 * time.Second); ; {
		out, missing = scrape(t, ts), nil
		for _, w := range want {
			if !strings.Contains(out, w) {
				missing = append(missing, w)
			}
		}
		if len(missing) == 0 || time.Now().After(deadline) {
			break
		}
	}
	for _, w := range missing {
		t.Errorf("scrape missing %q", w)
	}
	if t.Failed() {
		t.Logf("full scrape:\n%s", out)
	}
	// Every flush, whatever its width, runs through the panel entry point.
	if !strings.Contains(out, `kind="panel",mode="exact"`) {
		t.Error("scrape has no engine apply-duration series for the serving path")
	}
	// The scrape itself is instrumented like any endpoint.
	if !strings.Contains(scrape(t, ts), serve.MetricHTTPRequests+`{code="2xx",endpoint="metrics"}`) {
		t.Error("scrape of /metrics is not counted under its own endpoint")
	}
}

// TestReadyzShedAndRecover pins the queue-depth-aware readiness contract:
// with -shedthreshold semantics enabled, /readyz flips to 503 (with a JSON
// body naming the reason and depth) while admitted-but-unflushed applies
// exceed the threshold, and recovers to 200 once the batch flushes — without
// any request ever failing.
func TestReadyzShedAndRecover(t *testing.T) {
	const clients = 3
	m := testModel(t, core.LowRank)
	s := serve.New(serve.Options{
		// MaxBatch > clients keeps the queued requests in one batch.
		PoolSize: 1, MaxBatch: 8,
		Metrics: obs.NewMetrics(), ShedThreshold: 1,
	})
	if err := s.AddModel("m", m); err != nil {
		t.Fatal(err)
	}
	s.SetReady(true)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	if status, body := getReadyz(t, ts); status != http.StatusOK || body["ready"] != true {
		t.Fatalf("idle /readyz: %d %v, want 200 ready", status, body)
	}

	// The held engine keeps the admitted requests queued so the depth is
	// observable.
	release := holdServerEngines(t, s, "m")
	defer release()
	var wg sync.WaitGroup
	results := make([][]float64, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = postJSON(t, ts, "m", probeVec(m.N, c), false)
		}(c)
	}
	// Once every request is queued, the depth (3) exceeds the threshold (1)
	// and readiness must shed.
	waitQueueDepth(t, s, clients)
	status, body := getReadyz(t, ts)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("saturated /readyz: %d %v, want 503", status, body)
	}
	if body["ready"] != false || !strings.Contains(fmt.Sprint(body["reason"]), "shedding") {
		t.Fatalf("saturated /readyz body %v, want ready=false with a shedding reason", body)
	}
	if depth, ok := body["queueDepth"].(float64); !ok || depth < float64(clients) {
		t.Fatalf("saturated /readyz queueDepth %v, want >= %d", body["queueDepth"], clients)
	}

	// Shedding never refuses work: every admitted request completes
	// correctly, after which readiness recovers on its own (a flush uncounts
	// its batch before it answers).
	release()
	wg.Wait()
	for c := 0; c < clients; c++ {
		bitwiseEqual(t, fmt.Sprintf("shed client %d", c), results[c], direct(m, probeVec(m.N, c), false))
	}
	status, body = getReadyz(t, ts)
	if status != http.StatusOK || body["ready"] != true {
		t.Fatalf("drained /readyz: %d %v, want recovery to 200", status, body)
	}
}

// TestMetricsDuringDrain extends the graceful-drain contract to telemetry:
// admitted-but-unflushed requests are visible in the queue-depth gauge,
// /metrics stays scrapeable while the drain runs, and the final counts
// survive into a ValidateRunReport-clean serving block after the drain.
func TestMetricsDuringDrain(t *testing.T) {
	const clients = 4
	m := testModel(t, core.LowRank)
	ms := obs.NewMetrics()
	s := serve.New(serve.Options{PoolSize: 2, MaxBatch: 64, Metrics: ms})
	if err := s.AddModel("m", m); err != nil {
		t.Fatal(err)
	}
	s.SetReady(true)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// Held engines keep the requests queued until the drain is under way.
	release := holdServerEngines(t, s, "m")
	defer release()

	var wg sync.WaitGroup
	results := make([][]float64, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = postJSON(t, ts, "m", probeVec(m.N, c), false)
		}(c)
	}
	waitQueueDepth(t, s, clients)
	// Admitted but unflushed: the gauge must already count them.
	queued := registry.MetricQueueDepth + `{model="m"} ` + fmt.Sprint(clients)
	if !strings.Contains(scrape(t, ts), queued) {
		t.Fatalf("queue-depth gauge does not count admitted-but-unflushed requests")
	}

	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	// The drain cannot finish while the engines are held: /metrics answers
	// mid-drain and still counts the queued requests. Then the engines come
	// back and /metrics must keep answering until the drain completes.
	waitDraining(t, ts)
	if !strings.Contains(scrape(t, ts), queued) {
		t.Fatalf("queue-depth gauge mid-drain does not count the queued requests")
	}
	release()
drain:
	for {
		select {
		case <-done:
			break drain
		default:
			scrape(t, ts)
		}
	}
	wg.Wait()
	for c := 0; c < clients; c++ {
		bitwiseEqual(t, fmt.Sprintf("drained client %d", c), results[c], direct(m, probeVec(m.N, c), false))
	}

	// After the drain: gauges back to zero, every admitted apply counted,
	// and the serving block passes the report validator inside a report
	// shaped like the one subserve writes.
	out := scrape(t, ts)
	if !strings.Contains(out, registry.MetricQueueDepth+`{model="m"} 0`) {
		t.Error("queue depth not back to 0 after the drain")
	}
	if !strings.Contains(out, serve.MetricHTTPRequests+`{code="2xx",endpoint="apply"} `+fmt.Sprint(clients)) {
		t.Error("drained applies missing from the request counter")
	}
	stats := s.ServingStats()
	if stats.QueueDepth != 0 || stats.PoolInUse != 0 {
		t.Errorf("post-drain gauges: depth %d, in use %d, want 0/0", stats.QueueDepth, stats.PoolInUse)
	}
	if got := stats.Endpoints["apply"].Requests["2xx"]; got != clients {
		t.Errorf("serving block apply/2xx = %d, want %d", got, clients)
	}
	rep := &obs.RunReport{
		Schema:   obs.ReportSchema,
		Tool:     "subserve",
		Config:   map[string]any{},
		Results:  map[string]any{},
		Numerics: &obs.Numerics{},
		Serving:  stats,
	}
	data, err := rep.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateRunReport(data, false); err != nil {
		t.Fatalf("post-drain serving report invalid: %v", err)
	}
}
