package obs

import (
	"math"
	"strings"
	"testing"
)

// TestMetricsHandleIdentity: the registry must hand back the same handle for
// the same (name, labels) regardless of label order at the call site, and a
// distinct handle for a distinct label set — otherwise two instrumentation
// sites would silently split or merge series.
func TestMetricsHandleIdentity(t *testing.T) {
	m := NewMetrics()
	a := m.Counter("reqs", "h", "endpoint", "apply", "code", "2xx")
	b := m.Counter("reqs", "h", "code", "2xx", "endpoint", "apply")
	if a != b {
		t.Fatal("label order split one series into two handles")
	}
	c := m.Counter("reqs", "h", "endpoint", "apply", "code", "5xx")
	if a == c {
		t.Fatal("distinct label sets share a handle")
	}
	a.Inc()
	b.Add(2)
	if a.Value() != 3 || c.Value() != 0 {
		t.Fatalf("values %d / %d, want 3 / 0", a.Value(), c.Value())
	}

	h1 := m.Histogram("lat", "h", "endpoint", "apply")
	h2 := m.Histogram("lat", "h", "endpoint", "apply")
	if h1 != h2 {
		t.Fatal("histogram handles split")
	}
}

// TestMetricsKindMismatchPanics: re-registering a family under a different
// kind is a programming error that must fail loudly.
func TestMetricsKindMismatchPanics(t *testing.T) {
	m := NewMetrics()
	m.Counter("x", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("gauge registration on a counter family did not panic")
		}
	}()
	m.Gauge("x", "h")
}

// TestNilMetricsRegistry: a nil *Metrics must behave as telemetry-off — nil
// handles whose records are no-ops, an empty exposition, an empty snapshot —
// so instrumented code never branches on whether metrics are attached.
func TestNilMetricsRegistry(t *testing.T) {
	var m *Metrics
	c := m.Counter("a", "h")
	g := m.Gauge("b", "h")
	h := m.Histogram("c", "h")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry returned non-nil handles")
	}
	c.Inc()
	g.Set(5)
	g.Add(1)
	h.Observe(0.1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles recorded something")
	}
	if h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram quantile not 0")
	}
	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry exposition: %q, %v", sb.String(), err)
	}
	if fams := m.Snapshot().Families; len(fams) != 0 {
		t.Fatalf("nil registry snapshot has %d families", len(fams))
	}
}

// TestHistogramQuantiles pins the interpolation estimate on a known ladder:
// samples spread uniformly inside one bucket put the median at the linear
// midpoint, ranks past the last finite bound floor at the ladder's end, and
// the default ladder covers 1µs..10s.
func TestHistogramQuantiles(t *testing.T) {
	m := NewMetrics()
	h := m.HistogramBuckets("v", "h", []float64{1, 2, 4, 8})

	// 4 samples in (1,2]: rank q·4 interpolates inside that bucket.
	for i := 0; i < 4; i++ {
		h.Observe(1.5)
	}
	if got := h.Quantile(0.5); got != 1.5 {
		t.Fatalf("p50 of bucket (1,2] with uniform mass: %v, want 1.5", got)
	}
	// Push mass into the overflow: quantiles landing there report the top
	// finite bound as an explicit floor.
	for i := 0; i < 100; i++ {
		h.Observe(100)
	}
	if got := h.Quantile(0.99); got != 8 {
		t.Fatalf("p99 in overflow: %v, want top bound 8", got)
	}
	if got, want := h.Count(), int64(104); got != want {
		t.Fatalf("count %d, want %d", got, want)
	}
	if got, want := h.Sum(), 4*1.5+100*100.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum %v, want %v", got, want)
	}

	// Default ladder sanity: ascending, spanning 1µs to 10s.
	d := m.Histogram("lat", "h")
	d.Observe(3e-4)
	for i := 1; i < len(DefaultLatencyBuckets); i++ {
		if DefaultLatencyBuckets[i] <= DefaultLatencyBuckets[i-1] {
			t.Fatalf("default ladder not ascending at %d", i)
		}
	}
	if DefaultLatencyBuckets[0] != 1e-6 || DefaultLatencyBuckets[len(DefaultLatencyBuckets)-1] != 10 {
		t.Fatal("default ladder does not span 1µs..10s")
	}
	if q := d.Quantile(0.5); q <= 2.5e-4 || q > 5e-4 {
		t.Fatalf("single 300µs sample: p50 %v outside its bucket (2.5e-4, 5e-4]", q)
	}
}

// TestWritePrometheus checks the text exposition: HELP/TYPE headers, label
// rendering with escaping, cumulative monotone _bucket series ending in a
// +Inf bucket that equals _count.
func TestWritePrometheus(t *testing.T) {
	m := NewMetrics()
	m.Counter("subserve_http_requests_total", "requests", "endpoint", "apply", "code", "2xx").Add(7)
	m.Gauge("subserve_batch_queue_depth", "depth", "model", `we"ird\name`).Set(3)
	h := m.HistogramBuckets("subserve_http_request_seconds", "latency", []float64{0.001, 0.01, 0.1}, "endpoint", "apply")
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(5) // overflow

	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP subserve_http_requests_total requests\n",
		"# TYPE subserve_http_requests_total counter\n",
		`subserve_http_requests_total{code="2xx",endpoint="apply"} 7` + "\n",
		"# TYPE subserve_batch_queue_depth gauge\n",
		`subserve_batch_queue_depth{model="we\"ird\\name"} 3` + "\n",
		"# TYPE subserve_http_request_seconds histogram\n",
		`subserve_http_request_seconds_bucket{endpoint="apply",le="0.001"} 1` + "\n",
		`subserve_http_request_seconds_bucket{endpoint="apply",le="0.01"} 1` + "\n",
		`subserve_http_request_seconds_bucket{endpoint="apply",le="0.1"} 2` + "\n",
		`subserve_http_request_seconds_bucket{endpoint="apply",le="+Inf"} 3` + "\n",
		`subserve_http_request_seconds_count{endpoint="apply"} 3` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Every non-comment line must be "name{...} value" or "name value".
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("malformed sample line %q", line)
		}
	}
}

// TestMetricsRecordPathZeroAlloc pins the hot-path guarantee the serving
// stack relies on: counter, gauge and histogram records allocate nothing,
// with live handles and with nil ones.
func TestMetricsRecordPathZeroAlloc(t *testing.T) {
	m := NewMetrics()
	c := m.Counter("c", "h", "endpoint", "apply")
	g := m.Gauge("g", "h", "model", "m")
	h := m.Histogram("hst", "h", "endpoint", "apply")
	h.Observe(0.01) // warm

	checks := []struct {
		name string
		fn   func()
	}{
		{"Counter.Add", func() { c.Add(1) }},
		{"Gauge.Set", func() { g.Set(9) }},
		{"Gauge.Add", func() { g.Add(-1) }},
		{"Histogram.Observe", func() { h.Observe(0.003) }},
		{"nil Counter.Add", func() { (*Counter)(nil).Add(1) }},
		{"nil Histogram.Observe", func() { (*Histogram)(nil).Observe(1) }},
	}
	for _, tc := range checks {
		if allocs := testing.AllocsPerRun(200, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}
