package obs

import (
	"encoding/json"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilMetricsReport: with a nil registry the six batch methods record
// nothing and allocate nothing — each returns before it builds a label
// list — and Report yields an empty obs section and no numerics section.
func TestNilMetricsReport(t *testing.T) {
	var m *Metrics
	record := func() {
		m.Phase("anything")()
		m.Event("c").Add(3)
		m.Observed("h").Observe(1.5)
		m.Residual("res").Observe(1e-7)
		m.Rank("rank").Observe(4)
		m.Dropped("clip").Add(1)
	}
	if allocs := testing.AllocsPerRun(100, record); allocs != 0 {
		t.Fatalf("nil registry: %v allocs per record round, want 0", allocs)
	}
	s, n := m.Report()
	if len(s.Phases) != 0 || len(s.Counters) != 0 || len(s.Histograms) != 0 || n != nil {
		t.Fatalf("nil registry produced data: %+v %+v", s, n)
	}
}

func TestPhasesAccumulateInOrder(t *testing.T) {
	m := NewMetrics()
	stop := m.Phase("b/second")
	time.Sleep(time.Millisecond)
	stop()
	m.Phase("a/first")() // zero-ish duration, registered after b
	m.Phase("b/second")()
	// A phase is registered when it stops: c starts first but stops last.
	stopC := m.Phase("c/outer")
	m.Phase("d/inner")()
	stopC()

	s, _ := m.Report()
	if len(s.Phases) != 4 {
		t.Fatalf("phases = %d, want 4", len(s.Phases))
	}
	for i, want := range []string{"b/second", "a/first", "d/inner", "c/outer"} {
		if s.Phases[i].Name != want {
			t.Fatalf("phases not in first-stop order: %+v", s.Phases)
		}
	}
	if s.Phases[0].Calls != 2 {
		t.Fatalf("b/second calls = %d, want 2", s.Phases[0].Calls)
	}
	if s.Phases[0].Seconds <= 0 {
		t.Fatalf("b/second recorded no time")
	}
}

func TestCountersAndHistograms(t *testing.T) {
	m := NewMetrics()
	m.Event("solves").Add(5)
	m.Event("solves").Add(2)
	m.Event("idle") // registered, never incremented: listed as 0
	m.Observed("unsampled")
	for _, v := range []float64{1, 1, 2, 3, 100, 1e6} {
		m.Observed("iters").Observe(v)
	}
	s, _ := m.Report()
	if s.Counters["solves"] != 7 {
		t.Fatalf("solves = %d, want 7", s.Counters["solves"])
	}
	if v, ok := s.Counters["idle"]; !ok || v != 0 {
		t.Fatalf("registered counter idle = %d (listed %v), want an explicit 0", v, ok)
	}
	if _, ok := s.Histograms["unsampled"]; ok {
		t.Fatal("a histogram with no samples is listed")
	}
	h := s.Histograms["iters"]
	if h.Count != 6 || h.Min != 1 || h.Max != 1e6 {
		t.Fatalf("hist summary wrong: %+v", h)
	}
	want := h.Sum / 6
	if h.Mean != want {
		t.Fatalf("mean = %v, want %v", h.Mean, want)
	}
	var total int64
	sawInf := false
	for _, b := range h.Buckets {
		total += b.Count
		if b.Le == "+Inf" {
			sawInf = true
			if b.Count != 1 { // only the 1e6 sample overflows
				t.Fatalf("+Inf bucket count = %d, want 1", b.Count)
			}
		}
	}
	if total != 6 || !sawInf {
		t.Fatalf("bucket counts sum to %d (inf seen: %v)", total, sawInf)
	}
	// le="1" must hold exactly the two 1.0 samples (bounds are inclusive).
	if h.Buckets[0].Le != "1" || h.Buckets[0].Count != 2 {
		t.Fatalf("first bucket = %+v, want le=1 count=2", h.Buckets[0])
	}
}

// TestReportConcurrentUse: batched solves record from the worker pool, so
// phases, events and histograms must lose no update under concurrency, and
// a live scrape (the -pprof expvar) may build a report meanwhile.
func TestReportConcurrentUse(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			m.Report()
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				m.Phase("p")()
				m.Event("c").Add(1)
				m.Observed("h").Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	s, _ := m.Report()
	if s.Counters["c"] != 800 || s.Phases[0].Calls != 800 || s.Histograms["h"].Count != 800 {
		t.Fatalf("lost updates: %+v", s)
	}
}

func validReport() *RunReport {
	m := NewMetrics()
	m.Phase("core/extract")()
	m.Event("solver/solves").Add(12)
	m.Observed("solver/batch_size").Observe(12)
	m.Observed("bem/cg_iters").Observe(9)
	m.Residual("bem/cg_final_rel").Observe(3e-7)
	m.Residual("bem/cg_final_rel").Observe(8e-7)
	m.Rank("lowrank/row_rank").Observe(3)
	m.Dropped("lowrank/rank_clipped")
	s, n := m.Report()
	return &RunReport{
		Schema: ReportSchema,
		Tool:   "subx",
		Config: map[string]any{"method": "lowrank"},
		Results: map[string]any{
			"solves": 12, "gw_nnz": 100, "gw_sparsity": 2.5,
		},
		Obs:      s,
		Numerics: n,
	}
}

func TestValidateRunReport(t *testing.T) {
	rep := validReport()
	data, err := rep.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateRunReport(data, true); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}

	mutate := func(f func(r *RunReport)) []byte {
		r := validReport()
		f(r)
		b, err := r.MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"not json", []byte("nope")},
		{"bad schema", mutate(func(r *RunReport) { r.Schema = "v0" })},
		{"no tool", mutate(func(r *RunReport) { r.Tool = "" })},
		{"no phases", mutate(func(r *RunReport) { r.Obs.Phases = nil })},
		{"no solves", mutate(func(r *RunReport) { delete(r.Obs.Counters, "solver/solves") })},
		{"no batch hist", mutate(func(r *RunReport) { delete(r.Obs.Histograms, "solver/batch_size") })},
		{"no iters hist", mutate(func(r *RunReport) { delete(r.Obs.Histograms, "bem/cg_iters") })},
		{"no results", mutate(func(r *RunReport) { delete(r.Results, "gw_nnz") })},
		{"negative counter", mutate(func(r *RunReport) { r.Obs.Counters["solver/fallback"] = -1 })},
		{"v2 without numerics", mutate(func(r *RunReport) { r.Numerics = nil })},
		{"v1 with numerics", mutate(func(r *RunReport) { r.Schema = ReportSchemaV1 })},
		{"residual empty", mutate(func(r *RunReport) {
			r.Numerics.Residuals["fd/pcg_final_rel"] = ValueStat{}
		})},
		{"residual min above max", mutate(func(r *RunReport) {
			r.Numerics.Residuals["fd/pcg_final_rel"] = ValueStat{Count: 2, Min: 2, Max: 1, Last: 1}
		})},
		{"residual last outside range", mutate(func(r *RunReport) {
			r.Numerics.Residuals["fd/pcg_final_rel"] = ValueStat{Count: 2, Min: 1, Max: 2, Last: 5}
		})},
		{"negative residual", mutate(func(r *RunReport) {
			r.Numerics.Residuals["fd/pcg_final_rel"] = ValueStat{Count: 1, Min: -1, Max: 1, Last: 0}
		})},
		{"rank buckets disagree with count", mutate(func(r *RunReport) {
			h := r.Numerics.Ranks["lowrank/row_rank"]
			h.Buckets = append(h.Buckets, BucketStat{Le: "8", Count: 5})
			r.Numerics.Ranks["lowrank/row_rank"] = h
		})},
		{"negative rank bucket", mutate(func(r *RunReport) {
			r.Numerics.Ranks["bad"] = HistStat{Count: -1, Buckets: []BucketStat{{Le: "1", Count: -1}}}
		})},
		{"negative drop counter", mutate(func(r *RunReport) { r.Numerics.Drops["obs/spans_dropped"] = -2 })},
	}
	for _, c := range cases {
		if err := ValidateRunReport(c.data, true); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// Without extraction, missing result keys are fine.
	if err := ValidateRunReport(mutate(func(r *RunReport) { r.Results = nil }), false); err != nil {
		t.Fatalf("requireExtraction=false still checked results: %v", err)
	}
	// A v1 document (no numerics section) must stay accepted.
	v1 := mutate(func(r *RunReport) { r.Schema = ReportSchemaV1; r.Numerics = nil })
	if err := ValidateRunReport(v1, true); err != nil {
		t.Fatalf("v1 report rejected: %v", err)
	}
}

// applyEndpoint is a well-formed endpoint row of a serving or gateway block.
func applyEndpoint() ServingEndpointStat {
	return ServingEndpointStat{
		Requests:           map[string]int64{"2xx": 9, "4xx": 1},
		LatencyCount:       10,
		LatencyMeanSeconds: 2e-3,
		LatencyP50Seconds:  1e-3,
		LatencyP95Seconds:  4e-3,
		LatencyP99Seconds:  5e-3,
	}
}

// servingReport is what cmd/subserve writes after a drain: an empty obs
// section (the daemon records no batch events), zero substrate solves, and
// the serving block.
func servingReport() *RunReport {
	return &RunReport{
		Schema:   ReportSchema,
		Tool:     "subserve",
		Config:   map[string]any{"addr": ":8080"},
		Results:  map[string]any{},
		Numerics: &Numerics{},
		Serving: &ServingStats{
			Endpoints: map[string]ServingEndpointStat{"apply": applyEndpoint()},
			Registry:  &ServingRegistryStat{Versions: 1, Aliases: 1, Loads: 1, Swaps: 1},
		},
	}
}

// TestValidateServingReport pins the serving branch: a subserve report with
// zero solves and no solver histograms is valid, an idle one (no serving
// traffic) too — but a serving report that somehow performed substrate
// solves is rejected, since zero solves is the whole point of the daemon.
func TestValidateServingReport(t *testing.T) {
	rep := servingReport()
	data, err := rep.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateRunReport(data, false); err != nil {
		t.Fatalf("serving report rejected: %v", err)
	}

	idle := servingReport()
	idle.Serving.Endpoints = nil
	data, _ = idle.MarshalIndent()
	if err := ValidateRunReport(data, false); err != nil {
		t.Fatalf("idle serving report rejected: %v", err)
	}

	solved := servingReport()
	solved.Obs.Counters = map[string]int64{"solver/solves": 3}
	data, _ = solved.MarshalIndent()
	if err := ValidateRunReport(data, false); err == nil {
		t.Fatal("serving report with substrate solves accepted")
	}
}

// gatewayReport is what cmd/subgate writes after a drain: an empty obs
// section, zero substrate solves, and a gateway block with per-backend
// routing totals and front-door endpoint telemetry.
func gatewayReport() *RunReport {
	return &RunReport{
		Schema:   ReportSchema,
		Tool:     "subgate",
		Config:   map[string]any{"addr": ":8390"},
		Results:  map[string]any{},
		Numerics: &Numerics{},
		Gateway: &GatewayStats{
			Backends: []GatewayBackendStat{
				{Alias: "m", Addr: "127.0.0.1:8391", Ready: true, Requests: 10},
				{Alias: "m", Addr: "127.0.0.1:8392", Ready: false, Requests: 2, Failovers: 1},
			},
			Endpoints: map[string]ServingEndpointStat{"apply": applyEndpoint()},
		},
	}
}

// TestValidateGatewayReport pins the subgate branch: a gateway report with
// zero solves and no solver sections is valid, the gateway block is refused
// on any other tool, and malformed blocks (no backends, duplicate
// enrollment, negative totals) are rejected.
func TestValidateGatewayReport(t *testing.T) {
	rep := gatewayReport()
	data, err := rep.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateRunReport(data, false); err != nil {
		t.Fatalf("gateway report rejected: %v", err)
	}

	wrongTool := gatewayReport()
	wrongTool.Tool = "subserve"
	data, _ = wrongTool.MarshalIndent()
	if err := ValidateRunReport(data, false); err == nil {
		t.Fatal("subserve report carrying a gateway block accepted")
	}

	empty := gatewayReport()
	empty.Gateway.Backends = nil
	data, _ = empty.MarshalIndent()
	if err := ValidateRunReport(data, false); err == nil {
		t.Fatal("gateway block with no backends accepted")
	}

	dup := gatewayReport()
	dup.Gateway.Backends[1] = dup.Gateway.Backends[0]
	data, _ = dup.MarshalIndent()
	if err := ValidateRunReport(data, false); err == nil {
		t.Fatal("duplicate backend enrollment accepted")
	}

	neg := gatewayReport()
	neg.Gateway.Backends[0].Failovers = -1
	data, _ = neg.MarshalIndent()
	if err := ValidateRunReport(data, false); err == nil {
		t.Fatal("negative failover total accepted")
	}

	solved := gatewayReport()
	solved.Obs.Counters = map[string]int64{"solver/solves": 3}
	data, _ = solved.MarshalIndent()
	if err := ValidateRunReport(data, false); err == nil {
		t.Fatal("gateway report with substrate solves accepted")
	}
}

// TestValidateEndpointsBothBlocks pins that the serving and gateway blocks
// check their endpoint rows alike: each malformed row is rejected in either
// block, a negative mean latency included.
func TestValidateEndpointsBothBlocks(t *testing.T) {
	blocks := map[string]func(ServingEndpointStat) *RunReport{
		"subserve": func(ep ServingEndpointStat) *RunReport {
			r := servingReport()
			r.Serving.Endpoints["apply"] = ep
			return r
		},
		"subgate": func(ep ServingEndpointStat) *RunReport {
			r := gatewayReport()
			r.Gateway.Endpoints["apply"] = ep
			return r
		},
	}
	cases := []struct {
		name   string
		mutate func(*ServingEndpointStat)
	}{
		{"negative mean latency", func(ep *ServingEndpointStat) { ep.LatencyMeanSeconds = -1 }},
		{"negative request count", func(ep *ServingEndpointStat) { ep.Requests["5xx"] = -1 }},
		{"more latency samples than requests", func(ep *ServingEndpointStat) { ep.LatencyCount = 11 }},
		{"negative p50", func(ep *ServingEndpointStat) { ep.LatencyP50Seconds = -1 }},
		{"unordered quantiles", func(ep *ServingEndpointStat) { ep.LatencyP95Seconds = 6e-3 }},
	}
	for tool, build := range blocks {
		data, _ := build(applyEndpoint()).MarshalIndent()
		if err := ValidateRunReport(data, false); err != nil {
			t.Fatalf("%s: well-formed endpoint rejected: %v", tool, err)
		}
		for _, c := range cases {
			ep := applyEndpoint()
			c.mutate(&ep)
			data, _ := build(ep).MarshalIndent()
			if err := ValidateRunReport(data, false); err == nil {
				t.Errorf("%s: %s accepted", tool, c.name)
			}
		}
	}
}

func TestNumericsAccumulators(t *testing.T) {
	m := NewMetrics()
	m.Residual("res").Observe(0.5)
	m.Residual("res").Observe(0.1)
	m.Residual("res").Observe(0.3)
	m.Rank("rank").Observe(2)
	m.Rank("rank").Observe(5)
	m.Dropped("clip").Add(0)
	m.Dropped("clip").Add(3)
	m.Dropped("never")
	_, n := m.Report()
	v := n.Residuals["res"]
	if v.Count != 3 || v.Min != 0.1 || v.Max != 0.5 || v.Last != 0.3 {
		t.Fatalf("residual stat wrong: %+v", v)
	}
	if want := (0.5 + 0.1 + 0.3) / 3; v.Mean != want {
		t.Fatalf("residual mean = %v, want %v", v.Mean, want)
	}
	h := n.Ranks["rank"]
	if h.Count != 2 || h.Min != 2 || h.Max != 5 {
		t.Fatalf("rank hist wrong: %+v", h)
	}
	if n.Drops["clip"] != 3 {
		t.Fatalf("drop counter = %d, want 3", n.Drops["clip"])
	}
	if v, ok := n.Drops["never"]; !ok || v != 0 {
		t.Fatalf("registered drop counter never = %d (listed %v), want an explicit 0", v, ok)
	}

	// A live registry with nothing recorded: the numerics section is present
	// but empty (its absence is what makes a report v1-shaped).
	_, empty := NewMetrics().Report()
	if empty == nil || len(empty.Residuals) != 0 || len(empty.Ranks) != 0 || len(empty.Drops) != 0 {
		t.Fatalf("empty registry numerics wrong: %+v", empty)
	}
}

// TestHistogramBucketLadder pins the count-histogram bounds as a complete
// power-of-two ladder (the 1024→4096→16384 gaps aliased 2048- and
// 8192-sized samples into wider buckets) and the explicit overflow bucket
// above the top bound.
func TestHistogramBucketLadder(t *testing.T) {
	m := NewMetrics()
	// One sample exactly on each bound, plus one past the top.
	bounds := []string{"1", "2", "4", "8", "16", "32", "64", "128", "256", "512", "1024", "2048", "4096", "8192", "16384"}
	for _, b := range bounds {
		v, err := strconv.ParseFloat(b, 64)
		if err != nil {
			t.Fatal(err)
		}
		m.Observed("ladder").Observe(v)
	}
	m.Observed("ladder").Observe(16385)
	s, _ := m.Report()
	h := s.Histograms["ladder"]
	if h.Count != int64(len(bounds)+1) {
		t.Fatalf("count = %d, want %d", h.Count, len(bounds)+1)
	}
	// Bounds are inclusive, so every bucket (including +Inf) holds exactly
	// one sample, in ladder order.
	if len(h.Buckets) != len(bounds)+1 {
		t.Fatalf("occupied buckets = %d, want %d: %+v", len(h.Buckets), len(bounds)+1, h.Buckets)
	}
	for i, b := range h.Buckets[:len(bounds)] {
		if b.Le != bounds[i] || b.Count != 1 {
			t.Fatalf("bucket %d = %+v, want le=%s count=1", i, b, bounds[i])
		}
	}
	last := h.Buckets[len(bounds)]
	if last.Le != "+Inf" || last.Count != 1 {
		t.Fatalf("overflow bucket = %+v, want le=+Inf count=1", last)
	}
}

func TestSnapshotJSONStable(t *testing.T) {
	rep := validReport()
	a, err := rep.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	b, err := rep.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("marshal not deterministic")
	}
	if !strings.Contains(string(a), `"schema": "subcouple-run-report/v2"`) {
		t.Fatalf("schema line missing:\n%s", a)
	}
	var parsed map[string]json.RawMessage
	if err := json.Unmarshal(a, &parsed); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"schema", "tool", "config", "results", "obs", "numerics"} {
		if _, ok := parsed[k]; !ok {
			t.Fatalf("top-level key %q missing", k)
		}
	}
}
