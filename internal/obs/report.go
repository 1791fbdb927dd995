package obs

import (
	"encoding/json"
	"fmt"
	"strings"
)

// ReportSchema identifies the run-report JSON layout written by current
// tools. Bump only with a migration note in DESIGN.md; downstream tooling
// (cmd/benchreport -check, CI) keys on it. v2 added the "numerics" section
// (per-phase residual stats, rank histograms, drop counters);
// ValidateRunReport still accepts v1 documents.
const (
	ReportSchema   = "subcouple-run-report/v2"
	ReportSchemaV1 = "subcouple-run-report/v1"
)

// PhaseStat is one phase's aggregate: how many times it ran and the total
// inclusive wall time.
type PhaseStat struct {
	Name    string  `json:"name"`
	Calls   int64   `json:"calls"`
	Seconds float64 `json:"seconds"`
}

// BucketStat is one occupied histogram bucket. Le is the bucket's upper
// bound as a decimal string ("1", "2", ... or "+Inf") so the JSON stays
// valid without NaN/Inf numeric literals.
type BucketStat struct {
	Le    string `json:"le"`
	Count int64  `json:"count"`
}

// HistStat summarizes one histogram; only occupied buckets are listed.
type HistStat struct {
	Count   int64        `json:"count"`
	Sum     float64      `json:"sum"`
	Min     float64      `json:"min"`
	Max     float64      `json:"max"`
	Mean    float64      `json:"mean"`
	Buckets []BucketStat `json:"buckets"`
}

// Snapshot is a run report's obs section, built by Metrics.Report. Phases
// keep first-stop order (it reads as a timeline); counters and histograms
// marshal with sorted keys (encoding/json sorts map keys), so the output is
// stable.
type Snapshot struct {
	Phases     []PhaseStat         `json:"phases"`
	Counters   map[string]int64    `json:"counters"`
	Histograms map[string]HistStat `json:"histograms"`
}

// ValueStat summarizes a residual-style value series: count/sum/min/max/
// mean plus the last sample, which is the "is convergence degrading toward
// the end of the run" signal.
type ValueStat struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	Last  float64 `json:"last"`
}

// Numerics is the v2 report's numerical-health section: solver residual
// statistics per phase (fd/pcg_final_rel, bem/cg_final_rel), low-rank /
// wavelet rank-cut histograms, and drop counters (clipped spectra, spans
// that missed the trace buffer).
type Numerics struct {
	Residuals map[string]ValueStat `json:"residuals"`
	Ranks     map[string]HistStat  `json:"ranks"`
	Drops     map[string]int64     `json:"drops"`
}

// ServingEndpointStat summarizes one HTTP endpoint's live telemetry in a
// serving report: request counts by status class ("2xx", "4xx", ...) and
// latency quantiles estimated from the endpoint's metrics histogram.
type ServingEndpointStat struct {
	Requests           map[string]int64 `json:"requests"`
	LatencyCount       int64            `json:"latency_count"`
	LatencyMeanSeconds float64          `json:"latency_mean_seconds"`
	LatencyP50Seconds  float64          `json:"latency_p50_seconds"`
	LatencyP95Seconds  float64          `json:"latency_p95_seconds"`
	LatencyP99Seconds  float64          `json:"latency_p99_seconds"`
}

// ServingRegistryStat summarizes the model registry's lifecycle over a
// serving run: how many versions/aliases were live at shutdown and the
// load/swap/unload event counts, including refused unloads (a version an
// alias still pointed at) and hot-swap drain timing.
type ServingRegistryStat struct {
	Versions         int     `json:"versions"`
	Aliases          int     `json:"aliases"`
	Loads            int64   `json:"loads"`
	Swaps            int64   `json:"swaps"`
	Unloads          int64   `json:"unloads"`
	UnloadRefused    int64   `json:"unload_refused"`
	DrainCount       int64   `json:"drain_count"`
	DrainMeanSeconds float64 `json:"drain_mean_seconds"`
}

// ServingStats is the optional "serving" block of a subserve run report: a
// shutdown-time snapshot of the live metrics registry. QueueDepth and
// PoolInUse are the final gauge readings (0 after a clean drain — the drain
// test pins that admitted requests are counted before the report is
// written). Only subserve reports may carry this block; ValidateRunReport
// rejects it anywhere else.
type ServingStats struct {
	QueueDepth int                            `json:"queue_depth"`
	PoolInUse  int                            `json:"pool_in_use"`
	Endpoints  map[string]ServingEndpointStat `json:"endpoints"`
	// Registry is the model-lifecycle summary (nil for pre-registry
	// reports).
	Registry *ServingRegistryStat `json:"registry,omitempty"`
}

// GatewayBackendStat is one replica's row in a gateway report: whether it
// was ready at shutdown and its lifetime proxied-request and failover
// totals.
type GatewayBackendStat struct {
	Alias     string `json:"alias"`
	Addr      string `json:"addr"`
	Ready     bool   `json:"ready"`
	Requests  int64  `json:"requests"`
	Failovers int64  `json:"failovers"`
}

// GatewayStats is the optional "gateway" block of a subgate run report: the
// fleet the gateway fronted, with per-backend routing totals, plus the
// gateway's own front-door endpoint telemetry in the same shape subserve
// uses. Only subgate reports may carry this block.
type GatewayStats struct {
	Backends  []GatewayBackendStat           `json:"backends"`
	Endpoints map[string]ServingEndpointStat `json:"endpoints,omitempty"`
}

// RunReport is the top-level document written by `cmd/subx -report` and
// `cmd/tables -report`. Config holds the resolved run parameters, Results
// the end-of-run extraction metrics; both are flat maps so the key set —
// not Go types — defines the schema, checked by ValidateRunReport and the
// golden-keys test in cmd/subx.
type RunReport struct {
	Schema  string         `json:"schema"`
	Tool    string         `json:"tool"`
	Config  map[string]any `json:"config"`
	Results map[string]any `json:"results"`
	Obs     Snapshot       `json:"obs"`
	// Numerics is required for v2 documents and absent from v1.
	Numerics *Numerics `json:"numerics,omitempty"`
	// Serving is the live-metrics snapshot of a subserve report; valid only
	// when Tool == "subserve".
	Serving *ServingStats `json:"serving,omitempty"`
	// Gateway is the fleet snapshot of a subgate report; valid only when
	// Tool == "subgate".
	Gateway *GatewayStats `json:"gateway,omitempty"`
}

// MarshalIndent renders the report as stable, human-diffable JSON.
func (r *RunReport) MarshalIndent() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// requiredResultKeys are the extraction metrics every full run report must
// carry.
var requiredResultKeys = []string{"solves", "gw_nnz", "gw_sparsity"}

// ValidateRunReport parses data and checks the invariants the schema
// promises: a known schema string (v1 or v2), a non-empty tool name, at
// least one timed phase, a solve counter, no negative counters, solver
// batch-size stats, an iteration histogram from the substrate solver, a
// well-formed numerics section (v2 only), and — when requireExtraction is
// set — the extraction result keys. It is the check CI runs against
// `cmd/subx -report` output.
func ValidateRunReport(data []byte, requireExtraction bool) error {
	var r RunReport
	if err := json.Unmarshal(data, &r); err != nil {
		return fmt.Errorf("run report: not valid JSON: %w", err)
	}
	switch r.Schema {
	case ReportSchema, ReportSchemaV1:
	default:
		return fmt.Errorf("run report: schema %q, want %q or %q", r.Schema, ReportSchema, ReportSchemaV1)
	}
	if r.Tool == "" {
		return fmt.Errorf("run report: missing tool name")
	}
	// Serving-path reports (cmd/subserve, cmd/subgate) perform zero
	// substrate solves by design, so the extraction-solver sections are not
	// required of them — and an idle daemon may legitimately have timed no
	// phases.
	serving := r.Tool == "subserve" || r.Tool == "subgate"
	if len(r.Obs.Phases) == 0 && !serving {
		return fmt.Errorf("run report: no phases recorded")
	}
	for _, p := range r.Obs.Phases {
		if p.Name == "" || p.Calls <= 0 || p.Seconds < 0 {
			return fmt.Errorf("run report: malformed phase %+v", p)
		}
	}
	for name, v := range r.Obs.Counters {
		if v < 0 {
			return fmt.Errorf("run report: negative counter %s = %d", name, v)
		}
	}
	if !serving {
		if r.Obs.Counters["solver/solves"] <= 0 {
			return fmt.Errorf("run report: missing solver/solves counter")
		}
		if _, ok := r.Obs.Histograms["solver/batch_size"]; !ok {
			return fmt.Errorf("run report: missing solver/batch_size histogram")
		}
		iters := false
		for name := range r.Obs.Histograms {
			if strings.HasSuffix(name, "_iters") {
				iters = true
				break
			}
		}
		if !iters {
			return fmt.Errorf("run report: no *_iters iteration histogram")
		}
	} else if r.Obs.Counters["solver/solves"] != 0 {
		return fmt.Errorf("run report: serving report performed %d substrate solves, want 0",
			r.Obs.Counters["solver/solves"])
	}
	if r.Schema == ReportSchema {
		if err := validateNumerics(r.Numerics); err != nil {
			return err
		}
	} else if r.Numerics != nil {
		return fmt.Errorf("run report: v1 document carries a numerics section")
	}
	if r.Serving != nil {
		if r.Tool != "subserve" {
			return fmt.Errorf("run report: tool %q carries a serving block (subserve only)", r.Tool)
		}
		if err := validateServing(r.Serving); err != nil {
			return err
		}
	}
	if r.Gateway != nil {
		if r.Tool != "subgate" {
			return fmt.Errorf("run report: tool %q carries a gateway block (subgate only)", r.Tool)
		}
		if err := validateGateway(r.Gateway); err != nil {
			return err
		}
	}
	if requireExtraction {
		for _, k := range requiredResultKeys {
			if _, ok := r.Results[k]; !ok {
				return fmt.Errorf("run report: missing results key %q", k)
			}
		}
	}
	return nil
}

// validateServing checks a serving block's internal consistency: gauges and
// registry counters non-negative, endpoints as validateEndpoints checks them,
// and no live alias without a recorded load.
func validateServing(s *ServingStats) error {
	if s.QueueDepth < 0 || s.PoolInUse < 0 {
		return fmt.Errorf("run report: serving gauges negative: depth %d, in use %d", s.QueueDepth, s.PoolInUse)
	}
	if err := validateEndpoints("serving", s.Endpoints); err != nil {
		return err
	}
	if reg := s.Registry; reg != nil {
		if reg.Versions < 0 || reg.Aliases < 0 {
			return fmt.Errorf("run report: serving registry gauges negative: versions %d, aliases %d", reg.Versions, reg.Aliases)
		}
		for name, v := range map[string]int64{
			"loads": reg.Loads, "swaps": reg.Swaps, "unloads": reg.Unloads,
			"unload_refused": reg.UnloadRefused, "drain_count": reg.DrainCount,
		} {
			if v < 0 {
				return fmt.Errorf("run report: serving registry counter %s = %d", name, v)
			}
		}
		if reg.DrainMeanSeconds < 0 {
			return fmt.Errorf("run report: serving registry negative drain mean")
		}
		// An alias can only point at a loaded version, and every load was
		// counted; a live alias with zero recorded loads is inconsistent.
		if reg.Aliases > 0 && reg.Loads == 0 {
			return fmt.Errorf("run report: serving registry has %d aliases but recorded no loads", reg.Aliases)
		}
	}
	return nil
}

// validateGateway checks a gateway block's internal consistency: at least
// one backend (a gateway with no fleet cannot have run), unique non-empty
// (alias, addr) rows with non-negative totals, and endpoint telemetry
// passing the same checks as a serving block's.
func validateGateway(g *GatewayStats) error {
	if len(g.Backends) == 0 {
		return fmt.Errorf("run report: gateway block with no backends")
	}
	seen := map[string]bool{}
	for _, b := range g.Backends {
		if b.Alias == "" || b.Addr == "" {
			return fmt.Errorf("run report: gateway backend with empty alias or addr: %+v", b)
		}
		key := b.Alias + "=" + b.Addr
		if seen[key] {
			return fmt.Errorf("run report: duplicate gateway backend %s", key)
		}
		seen[key] = true
		if b.Requests < 0 || b.Failovers < 0 {
			return fmt.Errorf("run report: gateway backend %s has negative totals: %+v", key, b)
		}
	}
	return validateEndpoints("gateway", g.Endpoints)
}

// validateEndpoints checks one block's per-endpoint telemetry: request
// counts non-negative, no more latency samples than requests, and, once the
// endpoint saw traffic, non-negative ordered quantiles (p50 <= p95 <= p99)
// and a non-negative mean. block names the report block in errors.
func validateEndpoints(block string, eps map[string]ServingEndpointStat) error {
	for name, ep := range eps {
		var total int64
		for class, c := range ep.Requests {
			if c < 0 {
				return fmt.Errorf("run report: %s endpoint %s: negative %s count %d", block, name, class, c)
			}
			total += c
		}
		if ep.LatencyCount < 0 || ep.LatencyCount > total {
			return fmt.Errorf("run report: %s endpoint %s: latency count %d vs %d requests", block, name, ep.LatencyCount, total)
		}
		if ep.LatencyCount > 0 {
			if ep.LatencyP50Seconds < 0 || ep.LatencyP50Seconds > ep.LatencyP95Seconds ||
				ep.LatencyP95Seconds > ep.LatencyP99Seconds {
				return fmt.Errorf("run report: %s endpoint %s: unordered quantiles %v/%v/%v",
					block, name, ep.LatencyP50Seconds, ep.LatencyP95Seconds, ep.LatencyP99Seconds)
			}
			if ep.LatencyMeanSeconds < 0 {
				return fmt.Errorf("run report: %s endpoint %s: negative mean latency", block, name)
			}
		}
	}
	return nil
}

// validateNumerics checks the v2 numerics section: it must be present, and
// every residual stat, rank histogram and drop counter must be internally
// consistent (non-negative counts, min <= max, last within [min, max]).
func validateNumerics(n *Numerics) error {
	if n == nil {
		return fmt.Errorf("run report: v2 document missing numerics section")
	}
	for name, v := range n.Residuals {
		if v.Count <= 0 {
			return fmt.Errorf("run report: numerics residual %s has count %d", name, v.Count)
		}
		if v.Min > v.Max || v.Last < v.Min || v.Last > v.Max {
			return fmt.Errorf("run report: numerics residual %s malformed: %+v", name, v)
		}
		if v.Min < 0 {
			return fmt.Errorf("run report: numerics residual %s negative: %+v", name, v)
		}
	}
	for name, h := range n.Ranks {
		if h.Count <= 0 {
			return fmt.Errorf("run report: numerics rank histogram %s has count %d", name, h.Count)
		}
		var total int64
		for _, b := range h.Buckets {
			if b.Count < 0 {
				return fmt.Errorf("run report: numerics rank histogram %s has negative bucket", name)
			}
			total += b.Count
		}
		if total != h.Count {
			return fmt.Errorf("run report: numerics rank histogram %s buckets sum to %d, count %d", name, total, h.Count)
		}
	}
	for name, v := range n.Drops {
		if v < 0 {
			return fmt.Errorf("run report: numerics drop counter %s = %d", name, v)
		}
	}
	return nil
}
