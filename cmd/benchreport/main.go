// Command benchreport regenerates BENCH_extract.json, the repo's committed
// perf-trajectory data point: it re-runs the BenchmarkExtractSerial/Parallel
// ablation pair (end-to-end low-rank extraction of the 256-contact
// alternating example against the live eigenfunction solver, Workers 1 vs
// all CPUs) plus the wavelet per-table extraction on the same case, times
// the model layer's serving paths (single-RHS and batched engine applies,
// zero substrate solves), and writes timings, solve counts, and a full
// instrumented run report.
//
// Usage:
//
//	benchreport [-short] [-reps 3] [-out BENCH_extract.json]
//	benchreport -scaling [-short] [-max 4096] [-membudget N] [-out BENCH_scaling.json]
//	benchreport -check run.json   # validate a subx/tables -report file
//	benchreport -diff -tol 0.15 old.json new.json   # perf-regression gate
//
// -short shrinks the case to 64 contacts so CI can exercise regeneration
// cheaply; the committed file is produced by a full (non-short) run.
//
// -scaling runs the paper-scale ladder instead (see scaling.go): both
// methods over regular/alternating grids up to -max contacts (default 4096;
// 256 with -short; 10240 adds the Example 5 rung), writing per-point solves,
// nnz, phase times, and peak memory plus fitted growth exponents to
// BENCH_scaling.json. -membudget caps low-rank respond-batch memory in
// bytes (0 = unbounded; outputs are bitwise identical either way).
//
// -diff compares two benchmark files and exits nonzero on regression; it
// dispatches on the files' schema field, so it gates BENCH_extract.json and
// BENCH_scaling.json with the same flag. For extract files a regression is a
// shared configuration slower than old × (1+tol), a solve-count change, or a
// configuration that disappeared — gated only when the files describe the
// same case; different cases (e.g. the committed full run vs a -short CI
// run) compare informationally. For scaling files the deterministic columns
// gate across machines: shared (family, method, n) points must match solves
// and nnz exactly, points within the new run's -max must not disappear, and
// fitted solves/nnz exponents may not drift more than tol when both sides
// fit at least three rungs; wall times stay informational.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"subcouple/internal/core"
	"subcouple/internal/experiments"
	"subcouple/internal/geom"
	"subcouple/internal/metrics"
	"subcouple/internal/obs"
	"subcouple/internal/solver"
)

// benchSchema versions the BENCH_extract.json layout, separate from the
// run-report schema it embeds.
const benchSchema = "subcouple-bench/v1"

// benchRow is one timed configuration of the extraction benchmark.
type benchRow struct {
	Name         string  `json:"name"`
	Method       string  `json:"method"`
	Workers      int     `json:"workers"`
	Reps         int     `json:"reps"`
	SecondsPerOp float64 `json:"seconds_per_op"` // best of reps
	MeanSeconds  float64 `json:"mean_seconds"`
	Solves       int     `json:"solves"`
}

// benchFile is the whole BENCH_extract.json document.
type benchFile struct {
	Schema     string         `json:"schema"`
	GoVersion  string         `json:"go_version"`
	NumCPU     int            `json:"num_cpu"`
	Short      bool           `json:"short"`
	Case       string         `json:"case"`
	Contacts   int            `json:"contacts"`
	Benchmarks []benchRow     `json:"benchmarks"`
	Extract    *obs.RunReport `json:"extract_report"`
}

func main() {
	out := flag.String("out", "", "write the benchmark report to this file (default BENCH_extract.json, or BENCH_scaling.json with -scaling)")
	short := flag.Bool("short", false, "use the 64-contact case (fast; for CI); with -scaling, cap the ladder at 256 contacts")
	reps := flag.Int("reps", 3, "timed repetitions per configuration")
	check := flag.String("check", "", "validate a run report written by subx/tables -report, then exit")
	diff := flag.Bool("diff", false, "compare two benchmark files (old.json new.json as positional args) and exit nonzero on regression")
	tol := flag.Float64("tol", 0.15, "with -diff: allowed fractional slowdown (extract) or absolute exponent drift (scaling) before failing")
	scaling := flag.Bool("scaling", false, "run the paper-scale scaling ladder and write BENCH_scaling.json")
	maxContacts := flag.Int("max", 0, "with -scaling: largest ladder rung in contacts (default 4096; 256 with -short; 10240 adds the Example 5 rung)")
	memBudget := flag.Int64("membudget", 0, "with -scaling: low-rank respond-batch memory cap in bytes (0 = unbounded)")
	flag.Parse()
	log.SetFlags(log.Ltime)

	if *check != "" {
		if err := checkReport(*check); err != nil {
			log.Fatalf("check %s: %v", *check, err)
		}
		log.Printf("%s: valid run report", *check)
		return
	}
	if *diff {
		if flag.NArg() != 2 {
			log.Fatalf("-diff needs exactly two positional args: old.json new.json")
		}
		if err := diffFiles(os.Stdout, flag.Arg(0), flag.Arg(1), *tol); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *scaling {
		mx := *maxContacts
		if mx == 0 {
			mx = 4096
			if *short {
				mx = 256
			}
		}
		dst := *out
		if dst == "" {
			dst = "BENCH_scaling.json"
		}
		if err := runScaling(dst, *short, mx, *memBudget); err != nil {
			log.Fatal(err)
		}
		return
	}
	dst := *out
	if dst == "" {
		dst = "BENCH_extract.json"
	}
	if err := run(dst, *short, *reps); err != nil {
		log.Fatal(err)
	}
}

// checkReport validates a -report file from either tool. Reports from subx
// carry single-extraction result metrics; tables reports aggregate several
// runs and carry none, so the extraction-result keys are required only when
// the tool is subx.
func checkReport(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var r obs.RunReport
	if err := json.Unmarshal(data, &r); err != nil {
		return err
	}
	return obs.ValidateRunReport(data, r.Tool == "subx")
}

// loadBench reads and schema-checks one benchmark file.
func loadBench(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc benchFile
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != benchSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, benchSchema)
	}
	return &doc, nil
}

// sniffSchema reads just the schema field of a benchmark file so -diff can
// dispatch between the extract and scaling comparators.
func sniffSchema(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	var head struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return "", fmt.Errorf("%s: %w", path, err)
	}
	return head.Schema, nil
}

// diffFiles implements -diff: compare newPath against oldPath and return an
// error (→ nonzero exit) when a shared configuration regressed. The
// comparator is chosen by the files' schema: extract files get diffBench,
// scaling files get diffScaling.
func diffFiles(w io.Writer, oldPath, newPath string, tol float64) error {
	oldSchema, err := sniffSchema(oldPath)
	if err != nil {
		return err
	}
	newSchema, err := sniffSchema(newPath)
	if err != nil {
		return err
	}
	if oldSchema != newSchema {
		return fmt.Errorf("schema mismatch: %s is %q, %s is %q", oldPath, oldSchema, newPath, newSchema)
	}
	var regs []string
	switch oldSchema {
	case scalingSchema:
		oldDoc, err := loadScaling(oldPath)
		if err != nil {
			return err
		}
		newDoc, err := loadScaling(newPath)
		if err != nil {
			return err
		}
		regs = diffScaling(w, oldDoc, newDoc, tol)
	default:
		oldDoc, err := loadBench(oldPath)
		if err != nil {
			return err
		}
		newDoc, err := loadBench(newPath)
		if err != nil {
			return err
		}
		regs = diffBench(w, oldDoc, newDoc, tol)
	}
	if len(regs) > 0 {
		return fmt.Errorf("benchmark regression vs %s:\n  %s", oldPath, strings.Join(regs, "\n  "))
	}
	return nil
}

// diffBench compares configurations shared by name and returns the list of
// regressions. A configuration regresses when its best-of time exceeds
// old × (1+tol), when its solve count changes at all (solve counts are
// deterministic, so any drift is an algorithm change, not noise), or when a
// baseline configuration disappears from the new file — a vanished row is
// the quietest way to lose a gate, so it fails loudly. All checks require
// the two files to describe the same case — when they differ (e.g. the
// committed full-size file against a -short CI run) every comparison is
// informational only, so the gate can be wired into CI before the committed
// file is regenerated.
func diffBench(w io.Writer, oldDoc, newDoc *benchFile, tol float64) []string {
	sameCase := oldDoc.Case == newDoc.Case && oldDoc.Contacts == newDoc.Contacts
	if !sameCase {
		fmt.Fprintf(w, "cases differ (%s/%d vs %s/%d contacts): informational comparison only\n",
			oldDoc.Case, oldDoc.Contacts, newDoc.Case, newDoc.Contacts)
	}
	oldRows := make(map[string]benchRow, len(oldDoc.Benchmarks))
	for _, r := range oldDoc.Benchmarks {
		oldRows[r.Name] = r
	}
	var regressions []string
	for _, nr := range newDoc.Benchmarks {
		or, ok := oldRows[nr.Name]
		if !ok {
			fmt.Fprintf(w, "%-16s new configuration, no baseline\n", nr.Name)
			continue
		}
		var ratio float64
		if or.SecondsPerOp > 0 {
			ratio = nr.SecondsPerOp / or.SecondsPerOp
		}
		status := "ok"
		if sameCase {
			if nr.SecondsPerOp > or.SecondsPerOp*(1+tol) {
				status = "REGRESSION"
				regressions = append(regressions,
					fmt.Sprintf("%s: %.3fs/op -> %.3fs/op (%.2fx, tol %.0f%%)",
						nr.Name, or.SecondsPerOp, nr.SecondsPerOp, ratio, 100*tol))
			}
			if nr.Solves != or.Solves {
				status = "REGRESSION"
				regressions = append(regressions,
					fmt.Sprintf("%s: solve count %d -> %d", nr.Name, or.Solves, nr.Solves))
			}
		} else if nr.Solves != or.Solves {
			fmt.Fprintf(w, "%-16s solve count %d -> %d (different case, not gated)\n",
				nr.Name, or.Solves, nr.Solves)
		}
		fmt.Fprintf(w, "%-16s %8.3fs/op -> %8.3fs/op  (%.2fx)  solves %d -> %d  %s\n",
			nr.Name, or.SecondsPerOp, nr.SecondsPerOp, ratio, or.Solves, nr.Solves, status)
	}
	newNames := make(map[string]bool, len(newDoc.Benchmarks))
	for _, nr := range newDoc.Benchmarks {
		newNames[nr.Name] = true
	}
	for _, or := range oldDoc.Benchmarks {
		if newNames[or.Name] {
			continue
		}
		if sameCase {
			regressions = append(regressions,
				fmt.Sprintf("%s: configuration disappeared (was %.3fs/op, %d solves)",
					or.Name, or.SecondsPerOp, or.Solves))
			fmt.Fprintf(w, "%-16s disappeared from new file  REGRESSION\n", or.Name)
		} else {
			fmt.Fprintf(w, "%-16s not in new file (different case, not gated)\n", or.Name)
		}
	}
	return regressions
}

func run(out string, short bool, reps int) error {
	c := experiments.Example3(experiments.Small) // 256 contacts, as in bench_test.go
	if short {
		c = experiments.Case{
			Name: "3-alternating-short", Layout: geom.AlternatingGrid(64, 64, 8, 8, 1, 7),
			MaxLevel: 3, NP: 64,
		}
	}
	s, err := experiments.BemSolver(c)
	if err != nil {
		return err
	}
	n := c.Layout.N()
	log.Printf("case %s: %d contacts, %d reps per configuration", c.Name, n, reps)

	configs := []struct {
		name    string
		method  core.Method
		workers int
	}{
		{"ExtractSerial", core.LowRank, 1},
		{"ExtractParallel", core.LowRank, 0},
		{"ExtractWavelet", core.Wavelet, 0},
	}
	rows := make([]benchRow, 0, len(configs))
	for _, cfg := range configs {
		row, err := timeExtract(s, c, cfg.method, cfg.workers, reps)
		if err != nil {
			return fmt.Errorf("%s: %w", cfg.name, err)
		}
		row.Name = cfg.name
		log.Printf("%-16s %8.3fs/op (best of %d), %d solves", row.Name, row.SecondsPerOp, reps, row.Solves)
		rows = append(rows, row)
	}

	// One instrumented low-rank run for the embedded phase/histogram report
	// (outputs are bitwise identical to the timed runs; see the determinism
	// suite).
	ms := obs.NewMetrics()
	res, err := core.Extract(s, c.Layout, core.Options{
		Method: core.LowRank, MaxLevel: c.MaxLevel, Metrics: ms,
	})
	if err != nil {
		return err
	}
	extractObs, extractNumerics := ms.Report()

	// Apply-path benchmarks: the serving side of the model layer. One op is
	// a single Q·Gw·Qᵀ·x through the engine's scratch-buffered path, or a
	// 16-column panel on the worker pool. Zero substrate solves by
	// construction, so the solve-count gate pins that the serving path never
	// regresses into re-extraction.
	for _, row := range timeApply(res, reps) {
		log.Printf("%-18s %8.3gs/op (best of %d), %d solves", row.Name, row.SecondsPerOp, reps, row.Solves)
		rows = append(rows, row)
	}

	doc := benchFile{
		Schema:     benchSchema,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		Short:      short,
		Case:       c.Name,
		Contacts:   n,
		Benchmarks: rows,
		Extract: &obs.RunReport{
			Schema: obs.ReportSchema,
			Tool:   "benchreport",
			Config: map[string]any{
				"case": c.Name, "contacts": n, "method": "lowrank", "solver": "bem",
				"max_level": c.MaxLevel, "num_cpu": runtime.NumCPU(),
			},
			Results: map[string]any{
				"solves":          res.Solves,
				"naive_solves":    n,
				"solve_reduction": metrics.SolveReduction(n, res.Solves),
				"gw_nnz":          res.Gw.NNZ(),
				"gw_sparsity":     res.Gw.Sparsity(),
			},
			Obs:      extractObs,
			Numerics: extractNumerics,
		},
	}
	data, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	log.Printf("benchmark report written to %s", out)
	return nil
}

// timeApply benchmarks the engine's apply paths on an already-extracted
// result: ApplySingle (one RHS through ApplyInto) and ApplyPanel16 (16 RHS
// through the column-major panel kernel). Applies are microseconds, so each
// timed sample loops enough iterations to be clock-robust and reports the
// per-op time; best-of-reps like the extraction rows.
func timeApply(res *core.Result, reps int) []benchRow {
	eng := res.Engine()
	n := res.N()
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i%13) - 6
	}
	out := make([]float64, n)
	const panelCols = 16
	panelX := make([]float64, n*panelCols)
	panelY := make([]float64, n*panelCols)
	for c := 0; c < panelCols; c++ {
		copy(panelX[c*n:(c+1)*n], x)
	}

	const iters = 100
	sample := func(op func()) float64 {
		op() // warm scratch so steady state is what gets timed
		best := 0.0
		for r := 0; r < reps; r++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				op()
			}
			d := time.Since(start).Seconds() / iters
			if r == 0 || d < best {
				best = d
			}
		}
		return best
	}
	single := sample(func() { eng.ApplyInto(out, x) })
	panel := sample(func() { eng.ApplyPanelInto(panelY, panelX, panelCols, 0, false) })

	method := res.Method.String()
	return []benchRow{
		{Name: "ApplySingle", Method: method, Workers: 1, Reps: reps, SecondsPerOp: single, MeanSeconds: single},
		{Name: "ApplyPanel16", Method: method, Workers: 0, Reps: reps, SecondsPerOp: panel, MeanSeconds: panel},
	}
}

// timeExtract runs the extraction reps times and keeps the best and mean
// wall time (best-of mirrors `go test -bench` practice: least-noise sample).
func timeExtract(s solver.Solver, c experiments.Case, m core.Method, workers, reps int) (benchRow, error) {
	row := benchRow{Method: m.String(), Workers: workers, Reps: reps}
	var total time.Duration
	for i := 0; i < reps; i++ {
		start := time.Now()
		res, err := core.Extract(s, c.Layout, core.Options{
			Method: m, MaxLevel: c.MaxLevel, Workers: workers,
		})
		if err != nil {
			return row, err
		}
		d := time.Since(start)
		total += d
		if i == 0 || d.Seconds() < row.SecondsPerOp {
			row.SecondsPerOp = d.Seconds()
		}
		row.Solves = res.Solves
	}
	row.MeanSeconds = total.Seconds() / float64(reps)
	return row, nil
}
