// Command bench is the repository benchmark. One process runs one workload
// and prints, as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": 1234, "failed": 0, "metrics": {"rss_mb": {"value": 42.3, "unit": "MB"}, ...}}
//
// With -trace 0 the metrics are the end-to-end set (endToEnd), measured with
// tracing off. With -trace 1 they are the per-layer set (perLayer), taken
// from a traced run whose spans are written as Chrome trace JSON to
// trace.json in the run directory. Every operation's output is checked; a
// run with any failed operation prints correct=false and exits 1.
//
// Build and run it through run.sh, which also builds the subserve and
// subgate daemons that the serving workloads drive:
//
//	bash bench/run.sh --workload serve-direct --seed 1 --seconds 10 --trace 0
//
// README.md describes the workloads, the metrics and which layer metric
// should move which end-to-end metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"subcouple/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef is one reported metric: its name, its unit, which direction is
// better, and for an end-to-end metric the share of the parent's median by
// which it may worsen before a change counts as a regression.
// BENCHMARK.json declares the same values (TestBenchmarkJSONMatches).
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd is what a user of the system sees, reported by every workload.
// Every workload extracts a model and serves it, so each metric means the
// same on all of them: the CPU time of set-up and of one extraction, the
// lower decile of the latency of one POST /apply of G·x, the accuracy of the
// operator, the black-box solves and Gw nonzeros it took, and the memory
// held during the timed phase. Times are CPU times and a lower decile
// because wall-clock medians moved by more than any bound allows between
// runs on the shared host the baseline was taken on (README.md); those
// medians are in perLayer as client.* and setup.wall_s.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"extract_cpu_s", "s", "lower", 0.25},
	{"apply_p10_ms", "ms", "lower", 0.25},
	{"rel_err", "ratio", "lower", 0.02},
	{"solves", "count", "lower", 0.01},
	{"gw_nnz", "count", "lower", 0.01},
	{"rss_mb", "MB", "lower", 0.2},
}

// perLayer splits the work by layer. A traced run measures every layer on
// the workload's own inputs: the layers the workload passes through from
// its main phase, the others with short probes (README.md). client.* is
// the wall-clock time the caller of the timed phase's operation sees: one
// extraction (extract-bem), one round of a low-rank and a wavelet
// extraction (extract-synth), or one POST /apply (serve-direct, fleet-swap).
var perLayer = []metricDef{
	{"setup.wall_s", "s", "lower", 0},
	{"blackbox.s", "s", "lower", 0},
	{"blackbox.calls", "count", "lower", 0},
	{"blackbox.batch_mean", "count", "higher", 0},
	{"algorithm.s", "s", "lower", 0},
	{"bem.cg_iters", "count", "lower", 0},
	{"bem.solve_ms", "ms", "lower", 0},
	{"bem.operator_ms", "ms", "lower", 0},
	{"dct.forward_ms", "ms", "lower", 0},
	{"dct.inverse_ms", "ms", "lower", 0},
	{"lowrank.build_s", "s", "lower", 0},
	{"lowrank.transform_s", "s", "lower", 0},
	{"wavelet.basis_s", "s", "lower", 0},
	{"wavelet.extract_s", "s", "lower", 0},
	{"model.apply_us", "us", "lower", 0},
	{"serve.cpu_us", "us", "lower", 0},
	{"serve.apply_p50_ms", "ms", "lower", 0},
	{"serve.self_p50_ms", "ms", "lower", 0},
	{"serve.handler_mean_us", "us", "lower", 0},
	{"batcher.wait_mean_us", "us", "lower", 0},
	{"batcher.size_mean", "count", "higher", 0},
	{"kernel.mean_us", "us", "lower", 0},
	{"gateway.self_p50_ms", "ms", "lower", 0},
	{"registry.drain_p50_ms", "ms", "lower", 0},
	{"admin.swaps", "count", "higher", 0},
	{"admin.swap_p50_ms", "ms", "lower", 0},
	{"client.p50_ms", "ms", "lower", 0},
	{"client.p90_ms", "ms", "lower", 0},
	{"client.p99_ms", "ms", "lower", 0},
	{"client.ops_per_s", "1/s", "higher", 0},
	{"process.peak_rss_mb", "MB", "lower", 0},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, *config, *report) error{
	"extract-bem":   runExtractBEM,
	"extract-synth": runExtractSynth,
	"serve-direct":  runServeDirect,
	"fleet-swap":    runFleetSwap,
}

// config sizes one run. fullConfig is what the command line runs; the tests
// shrink the layouts and phases.
type config struct {
	seed     uint64
	timed    time.Duration // the measured phase (-seconds)
	warmup   time.Duration // unmeasured load before a serving workload's timed phase
	direct   time.Duration // an extraction workload's direct phase, and each serving phase a traced run adds
	tracer   *obs.Tracer   // nil when untraced
	binDir   string        // subserve and subgate binaries
	runDir   string        // this run's daemon logs, artifacts and trace
	extractN int           // contacts of the extract-* and serve-direct layout
	fleetN   int           // contacts of the fleet-swap models
}

func fullConfig(seed uint64, seconds int, traced bool, binDir, runDir string) *config {
	cfg := &config{
		seed:     seed,
		timed:    time.Duration(seconds) * time.Second,
		warmup:   2 * time.Second,
		direct:   3 * time.Second,
		binDir:   binDir,
		runDir:   runDir,
		extractN: 1024,
		fleetN:   256,
	}
	if traced {
		cfg.tracer = obs.NewTracer(1 << 18)
	}
	return cfg
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = fs.Uint64("seed", 1, "seed the workload's inputs are drawn from")
		seconds = fs.Int("seconds", 10, "length of the measured phase, in seconds")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
		binDir  = fs.String("bin", "", "directory holding the subserve and subgate binaries")
		outDir  = fs.String("out", ".bench_build/out", "directory for per-run daemon logs, artifacts and traces")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *binDir == "" || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: need -workload (%s), -seconds >= 1, -trace 0|1 and -bin\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	runDir := filepath.Join(*outDir, fmt.Sprintf("%s-trace%d", *name, *trace))
	if err := os.RemoveAll(runDir); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	cfg := fullConfig(*seed, *seconds, *trace == 1, *binDir, runDir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep := newReport()
	err := drive(ctx, cfg, rep)
	if werr := rep.write(cfg); werr != nil && err == nil {
		err = werr
	}
	rep.print(stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *name, err)
		return 1
	}
	defs := endToEnd
	if cfg.tracer != nil {
		defs = perLayer
	}
	line := rep.result(defs, stderr)
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !line.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// report collects one run's metrics, its per-phase accounting of attempted
// and failed operations, and warnings.
type report struct {
	metrics map[string]float64
	phases  []*phase
	notes   []string
}

// phase counts the operations of one phase of a run: extractions, checks,
// daemon start-ups, requests or swaps.
type phase struct {
	Name      string   `json:"name"`
	Attempted int      `json:"attempted"`
	Succeeded int      `json:"succeeded"`
	Failed    int      `json:"failed"`
	Clients   int      `json:"clients,omitempty"` // clients that completed a request
	WallS     float64  `json:"wall_s,omitempty"`
	Errors    []string `json:"errors,omitempty"` // the first few failures
}

// maxErrors bounds the failure messages a phase keeps.
const maxErrors = 5

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.metrics[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// phase returns the named phase, creating it on first use.
func (r *report) phase(name string) *phase {
	for _, p := range r.phases {
		if p.Name == name {
			return p
		}
	}
	p := &phase{Name: name}
	r.phases = append(r.phases, p)
	return p
}

// record counts one operation of the phase; a non-nil err is a failure.
func (p *phase) record(err error) {
	p.Attempted++
	if err == nil {
		p.Succeeded++
		return
	}
	p.Failed++
	if len(p.Errors) < maxErrors {
		p.Errors = append(p.Errors, err.Error())
	}
}

func (r *report) totals() (attempted, failed int) {
	for _, p := range r.phases {
		attempted += p.Attempted
		failed += p.Failed
	}
	return attempted, failed
}

// metricOut and resultLine are the JSON shapes of the last output line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// result builds the output line for the given metric set. A metric the run
// could not measure (a scraped series that is no longer exported) is left
// out with a warning rather than reported as a number it did not measure.
func (r *report) result(defs []metricDef, warn io.Writer) resultLine {
	attempted, failed := r.totals()
	line := resultLine{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			fmt.Fprintf(warn, "bench: warning: metric %s was not measured\n", d.name)
			continue
		}
		line.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	return line
}

// print writes the per-phase accounting and the warnings to w.
func (r *report) print(w io.Writer) {
	for _, p := range r.phases {
		fmt.Fprintf(w, "bench: phase %-19s attempted %6d  succeeded %6d  failed %3d", p.Name, p.Attempted, p.Succeeded, p.Failed)
		if p.Clients > 0 {
			fmt.Fprintf(w, "  clients %d", p.Clients)
		}
		if p.WallS > 0 {
			fmt.Fprintf(w, "  wall %.3fs", p.WallS)
		}
		fmt.Fprintln(w)
		for _, e := range p.Errors {
			fmt.Fprintf(w, "bench:   failure: %s\n", e)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "bench: warning: %s\n", n)
	}
}

// write saves the run summary (every metric measured, the phases and the
// warnings) and, for a traced run, the Chrome trace into the run directory.
func (r *report) write(cfg *config) error {
	summary := struct {
		Metrics map[string]float64 `json:"metrics"`
		Phases  []*phase           `json:"phases"`
		Notes   []string           `json:"notes,omitempty"`
	}{r.metrics, r.phases, r.notes}
	data, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.runDir, "summary.json"), data, 0o644); err != nil {
		return err
	}
	if cfg.tracer == nil {
		return nil
	}
	if d := cfg.tracer.Dropped(); d > 0 {
		r.note("trace buffer full: %d spans dropped", d)
	}
	data, err = cfg.tracer.MarshalTrace()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.runDir, "trace.json"), data, 0o644)
}
