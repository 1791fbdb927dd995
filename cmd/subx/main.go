// Command subx is the end-to-end substrate-coupling extraction tool: it
// generates (or loads) a contact layout, builds a black-box substrate
// solver, runs one of the two sparsification algorithms, and reports the
// sparsity, solve-reduction and (optionally) accuracy statistics, plus spy
// plots of the transformed conductance matrix.
//
// Usage examples:
//
//	subx -layout regular -n 32 -method lowrank
//	subx -layout mixed -method wavelet -solver fd -spy
//	subx -layout alternating -n 16 -method lowrank -check -threshold 6
//	subx -layout regular -n 16 -method lowrank -report run.json
//	subx -layout regular -n 32 -pprof localhost:6060
package main

import (
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -pprof server
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"subcouple/internal/bem"
	"subcouple/internal/core"
	"subcouple/internal/fd"
	"subcouple/internal/geom"
	"subcouple/internal/metrics"
	"subcouple/internal/model"
	"subcouple/internal/obs"
	"subcouple/internal/render"
	"subcouple/internal/solver"
	"subcouple/internal/substrate"
)

func main() {
	log.SetFlags(log.Ltime)
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole tool behind a testable seam: flags in, human-readable
// stats out, errors returned instead of exiting.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("subx", flag.ContinueOnError)
	var (
		layoutKind = fs.String("layout", "regular", "layout: regular|irregular|alternating|mixed")
		n          = fs.Int("n", 16, "contacts per side for grid layouts")
		method     = fs.String("method", "lowrank", "sparsification method: lowrank|wavelet")
		solverKind = fs.String("solver", "bem", "black-box substrate solver: bem|fd")
		surface    = fs.Float64("surface", 128, "substrate surface side length")
		depth      = fs.Float64("depth", 40, "substrate depth")
		threshold  = fs.Float64("threshold", 6, "extra thresholding factor for Gwt (0 = off)")
		check      = fs.Bool("check", false, "extract exact G naively and report entrywise errors (slow)")
		spy        = fs.Bool("spy", false, "print spy plots of Gw (and Gwt)")
		save       = fs.String("save", "", "write the extracted model artifact (subcouple-model/v1 binary) to this file")
		load       = fs.String("load", "", "load a model artifact written by -save and serve it instead of extracting (zero substrate solves)")
		probes     = fs.Int("probes", 0, "stochastic error estimate with this many probe solves")
		workers    = fs.Int("workers", 0, "worker pool size for parallel extraction (0 = all CPUs, 1 = serial); results are identical for any value")
		report     = fs.String("report", "", "write a JSON run report (phase timings, solve counts, iteration histograms, numerics, result metrics) to this file")
		tracePath  = fs.String("trace", "", "write a Chrome trace-event JSON span trace (open at https://ui.perfetto.dev) to this file")
		pprofAddr  = fs.String("pprof", "", "serve net/http/pprof, expvar (incl. the live run report under /debug/vars) and /metrics on this address while running")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *load != "" {
		if *check || *probes > 0 {
			return fmt.Errorf("-check and -probes need a live solver and cannot be combined with -load")
		}
		if *report != "" {
			return fmt.Errorf("-report describes an extraction and cannot be combined with -load")
		}
	}

	// Observability: a registry/tracer exists only when something will read
	// it — extraction outputs are bitwise identical either way.
	var ms *obs.Metrics
	if *report != "" || *pprofAddr != "" {
		ms = obs.NewMetrics()
	}
	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer(0)
	}
	if *pprofAddr != "" {
		publishExpvars(ms)
		// Bind synchronously so a bad or busy address fails the run up front
		// with a real error; ListenAndServe inside the goroutine only logged
		// the failure after the run had started, and the log line could race
		// process exit. Only the accept loop runs in the background, on the
		// already-bound listener.
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof: %w", err)
		}
		defer ln.Close()
		log.Printf("pprof/expvar listening on http://%s/debug/pprof", ln.Addr())
		go func() {
			if err := http.Serve(ln, nil); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	var (
		res      *core.Result
		s        solver.Solver // nil when serving a loaded model
		maxLevel int
	)
	m := core.LowRank
	if strings.HasPrefix(*method, "wave") {
		m = core.Wavelet
	}
	if *load != "" {
		// Serving path: decode the artifact and apply it. No layout
		// generation, no solver, zero substrate solves.
		f, err := os.Open(*load)
		if err != nil {
			return fmt.Errorf("load: %w", err)
		}
		mdl, err := model.Read(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("load %s: %w", *load, err)
		}
		res, err = core.FromModel(mdl)
		if err != nil {
			return fmt.Errorf("load %s: %w", *load, err)
		}
		res.Engine().SetMetrics(ms)
		res.Engine().SetTracer(tracer)
		m = res.Method
		maxLevel, _ = strconv.Atoi(mdl.Meta["max_level"])
		log.Printf("model %s: %s, %d contacts, extracted with %d solves (this run: 0)",
			*load, mdl.Method, mdl.N, mdl.Solves)
	} else {
		// 1. Layout.
		var raw *geom.Layout
		switch *layoutKind {
		case "regular":
			raw = geom.RegularGrid(*surface, *surface, *n, *n, *surface/float64(*n)/2)
		case "irregular":
			raw = geom.IrregularSameSize(*surface, *surface, *n, *n, *surface/float64(*n)/2, 0.6, 7)
		case "alternating":
			raw = geom.AlternatingGrid(*surface, *surface, *n, *n, 1, *surface/float64(*n)-1)
		case "mixed":
			raw = geom.MixedShapes(*surface)
		default:
			return fmt.Errorf("unknown layout %q", *layoutKind)
		}
		if err := raw.Validate(); err != nil {
			return fmt.Errorf("layout: %w", err)
		}
		var layout *geom.Layout
		layout, maxLevel = core.Prepare(raw, 4)
		log.Printf("layout %s: %d contacts (%d after splitting), quadtree depth %d",
			raw.Name, raw.N(), layout.N(), maxLevel)

		// 2. Black-box solver on the thesis substrate (two layers, 100:1
		// conductivity, resistive shim approximating a floating backplane).
		prof := substrate.TwoLayer(*surface, *depth, 1, true)
		switch *solverKind {
		case "bem":
			np := 1
			for np < int(*surface) {
				np *= 2
			}
			b, err := bem.New(prof, layout, np)
			if err != nil {
				return fmt.Errorf("bem solver: %w", err)
			}
			b.Workers = *workers
			log.Printf("eigenfunction solver: %d panels per side, %d contact panels", np, b.NumPanels())
			s = b
		case "fd":
			prof.Layers[0].Thickness = 2 // align the layer boundary with the grid
			prof.Layers[1].Thickness = *depth - 3
			f, err := fd.New(prof, layout, fd.Options{
				H: 1, Placement: fd.Inside, Precond: fd.PrecondFastPoisson, AreaWeighted: true,
				Workers: *workers,
			})
			if err != nil {
				return fmt.Errorf("fd solver: %w", err)
			}
			log.Printf("finite-difference solver: %d grid nodes", f.NumNodes())
			s = f
		default:
			return fmt.Errorf("unknown solver %q", *solverKind)
		}

		// 3. Extract.
		var err error
		res, err = core.Extract(s, layout, core.Options{
			Method: m, MaxLevel: maxLevel, ThresholdFactor: *threshold, Workers: *workers,
			Metrics: ms, Tracer: tracer,
		})
		if err != nil {
			return fmt.Errorf("extract: %w", err)
		}
	}
	if tracer != nil {
		// Span overflow folds into the report's drop counters — a trace that
		// lost spans is labeled as such, never silently truncated.
		ms.Dropped("obs/spans_dropped").Add(tracer.Dropped())
	}

	// 4. Report.
	fmt.Fprintf(out, "\nmethod:            %v\n", m)
	fmt.Fprintf(out, "contacts:          %d\n", res.N())
	if *load != "" {
		fmt.Fprintf(out, "black-box solves:  0 (loaded model; extraction spent %d)\n", res.Model().Solves)
	} else {
		fmt.Fprintf(out, "black-box solves:  %d (naive: %d, reduction %.1fx)\n",
			res.Solves, res.N(), metrics.SolveReduction(res.N(), res.Solves))
	}
	fmt.Fprintf(out, "Gw sparsity:       %.1fx (%d nonzeros)\n", res.Gw.Sparsity(), res.Gw.NNZ())
	fmt.Fprintf(out, "Q sparsity:        %.1fx\n", res.Q().Sparsity())
	if res.Gwt != nil {
		fmt.Fprintf(out, "Gwt sparsity:      %.1fx (%d nonzeros)\n", res.Gwt.Sparsity(), res.Gwt.NNZ())
	}
	if *save != "" || *load != "" {
		// The fingerprint hashes the bit patterns of deterministic probe
		// applies (single and batched), so a saved and a reloaded model can
		// be cross-checked for bitwise-identical serving from the CLI alone.
		fmt.Fprintf(out, "apply fingerprint: %016x\n", applyFingerprint(res, *workers))
	}

	if *check {
		log.Printf("extracting exact G naively for the error check (%d solves)...", res.N())
		g, err := solver.ExtractDense(s)
		if err != nil {
			return fmt.Errorf("naive extraction: %w", err)
		}
		st := metrics.Compare(g, res.Column, nil, 0.1)
		fmt.Fprintf(out, "max rel error:     %.2f%%  (entries >10%%: %.2f%%)\n", 100*st.MaxRel, 100*st.FracAbove)
		if res.Gwt != nil {
			stt := metrics.Compare(g, res.ColumnThresholded, nil, 0.1)
			fmt.Fprintf(out, "thresholded:       max rel %.2f%%, >10%%: %.2f%%\n", 100*stt.MaxRel, 100*stt.FracAbove)
		}
	}

	// The run report always carries the stochastic error estimate; -probes
	// only overrides how many probe solves it spends. A loaded model has no
	// solver to probe against, so the serving path skips it.
	var est *core.ErrorEstimate
	if (*probes > 0 || *report != "") && s != nil {
		e, err := res.EstimateError(s, *probes, false)
		if err != nil {
			return fmt.Errorf("error estimate: %w", err)
		}
		est = &e
		fmt.Fprintf(out, "probe estimate:    mean rel %.3f%%, max rel %.3f%% over %d probes\n",
			100*est.MeanRel, 100*est.MaxRel, est.Probes)
	}

	if *save != "" {
		data, err := model.Encode(res.Model())
		if err != nil {
			return fmt.Errorf("save: %w", err)
		}
		if err := os.WriteFile(*save, data, 0o644); err != nil {
			return fmt.Errorf("save: %w", err)
		}
		log.Printf("model artifact written to %s (%d bytes)", *save, len(data))
	}

	if *spy {
		fmt.Fprintln(out, "\nGw spy plot (quadrant-hierarchical ordering):")
		fmt.Fprintln(out, render.Spy(res.GwReordered(false), 72))
		if res.Gwt != nil {
			fmt.Fprintln(out, "Gwt spy plot:")
			fmt.Fprintln(out, render.Spy(res.GwReordered(true), 72))
		}
	}

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		if err := tracer.WriteTrace(f); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		log.Printf("trace with %d spans (%d dropped) written to %s; open at https://ui.perfetto.dev",
			tracer.SpanCount(), tracer.Dropped(), *tracePath)
	}

	if *report != "" {
		rep := buildReport(ms, res, est, reportConfig{
			Layout: *layoutKind, N: *n, Method: m.String(), Solver: *solverKind,
			Surface: *surface, Depth: *depth, Threshold: *threshold,
			Workers: *workers, MaxLevel: maxLevel, Contacts: res.N(),
		})
		data, err := rep.MarshalIndent()
		if err != nil {
			return fmt.Errorf("report: %w", err)
		}
		if err := os.WriteFile(*report, data, 0o644); err != nil {
			return fmt.Errorf("report: %w", err)
		}
		log.Printf("run report written to %s", *report)
	}
	return nil
}

// reportConfig is the resolved run configuration echoed into the report.
type reportConfig struct {
	Layout    string
	N         int
	Method    string
	Solver    string
	Surface   float64
	Depth     float64
	Threshold float64
	Workers   int
	MaxLevel  int
	Contacts  int
}

// buildReport assembles the schema-stable run report (see DESIGN.md,
// "Observability"): resolved config, end-of-run result metrics, and the
// registry's phases/counters/histograms and numerics.
func buildReport(ms *obs.Metrics, res *core.Result, est *core.ErrorEstimate, cfg reportConfig) *obs.RunReport {
	results := map[string]any{
		"solves":          res.Solves,
		"naive_solves":    res.N(),
		"solve_reduction": metrics.SolveReduction(res.N(), res.Solves),
		"gw_nnz":          res.Gw.NNZ(),
		"gw_sparsity":     res.Gw.Sparsity(),
		"q_sparsity":      res.Q().Sparsity(),
	}
	if res.Gwt != nil {
		results["gwt_nnz"] = res.Gwt.NNZ()
		results["gwt_sparsity"] = res.Gwt.Sparsity()
	}
	if est != nil {
		results["est_probes"] = est.Probes
		results["est_counted"] = est.Counted
		results["est_mean_rel"] = est.MeanRel
		results["est_max_rel"] = est.MaxRel
	}
	snap, numerics := ms.Report()
	return &obs.RunReport{
		Schema: obs.ReportSchema,
		Tool:   "subx",
		Config: map[string]any{
			"layout":    cfg.Layout,
			"n":         cfg.N,
			"method":    cfg.Method,
			"solver":    cfg.Solver,
			"surface":   cfg.Surface,
			"depth":     cfg.Depth,
			"threshold": cfg.Threshold,
			"workers":   cfg.Workers,
			"max_level": cfg.MaxLevel,
			"contacts":  cfg.Contacts,
			"num_cpu":   runtime.NumCPU(),
		},
		Results:  results,
		Obs:      snap,
		Numerics: numerics,
	}
}

// Live publication on the -pprof listener: expvar.Publish and
// http.HandleFunc panic on duplicate names and run() is re-entered by tests,
// so registration happens once and both the "subcouple" expvar and /metrics
// read the current registry through an atomic pointer. Every scrape
// re-snapshots, so a long run shows live phase progress under /debug/vars,
// and /metrics serves the registry in Prometheus text format, as the
// daemons do.
var (
	expvarOnce sync.Once
	expvarMet  atomic.Pointer[obs.Metrics]
)

// applyFingerprint is model.Engine.Fingerprint on the result's engine: a
// `subx -save` run, a later `subx -load` run, and a subserve daemon over the
// same artifact all print the same value exactly when the artifact round
// trip and the batched engine are bitwise faithful.
func applyFingerprint(res *core.Result, workers int) uint64 {
	return res.Engine().Fingerprint(workers)
}

func publishExpvars(ms *obs.Metrics) {
	expvarMet.Store(ms)
	expvarOnce.Do(func() {
		expvar.Publish("subcouple", expvar.Func(func() any {
			snap, _ := expvarMet.Load().Report()
			return snap
		}))
		http.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			expvarMet.Load().WritePrometheus(w)
		})
	})
}
