// Command tables regenerates every table of the thesis's evaluation:
//
//	Table 2.1 — preconditioner effectiveness (avg PCG iterations/solve)
//	Table 2.2 — FD vs eigenfunction solve speed
//	Table 3.1 — wavelet sparsity/accuracy on Examples 1a/1b/2/3
//	Table 4.1 — low-rank vs wavelet, no thresholding
//	Table 4.2 — low-rank vs wavelet, thresholded ~6x
//	Table 4.3 — large examples (4096 and 10240 contacts)
//
// Usage:
//
//	tables [-table all|2.1|2.2|3.1|4.1|4.2|4.3] [-small] [-large] [-models dir]
//
// -small shrinks the examples ~4x for a fast run; -large enables the
// (slow) 10240-contact Example 5 of Table 4.3. -models caches extracted
// model artifacts in a directory so repeated runs serve the saved models
// instead of re-extracting (table numbers are identical either way).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"subcouple/internal/core"
	"subcouple/internal/experiments"
	"subcouple/internal/fd"
	"subcouple/internal/la"
	"subcouple/internal/obs"
	"subcouple/internal/solver"
	"subcouple/internal/substrate"
)

func main() {
	table := flag.String("table", "all", "which table to regenerate")
	small := flag.Bool("small", false, "shrink examples ~4x for a fast run")
	large := flag.Bool("large", false, "include the 10240-contact Example 5 (slow)")
	workers := flag.Int("workers", 0, "worker pool size for parallel extraction (0 = all CPUs, 1 = serial); results are identical for any value")
	models := flag.String("models", "", "cache extracted model artifacts in this directory and serve them on later runs (created if missing)")
	report := flag.String("report", "", "write a JSON run report aggregating phase timings and iteration histograms across the run to this file")
	trace := flag.String("trace", "", "write a Chrome trace-event JSON file spanning the whole run to this file (open in Perfetto or chrome://tracing)")
	flag.Parse()
	log.SetFlags(log.Ltime)
	experiments.Workers = *workers
	if *models != "" {
		if err := os.MkdirAll(*models, 0o755); err != nil {
			log.Fatalf("models dir: %v", err)
		}
		experiments.ModelDir = *models
	}
	if *report != "" {
		experiments.Metrics = obs.NewMetrics()
	}
	if *trace != "" {
		experiments.Tracer = obs.NewTracer(0)
	}

	scale := experiments.Full
	if *small {
		scale = experiments.Small
	}
	run := func(name string, f func() error) {
		if *table != "all" && *table != name {
			return
		}
		log.Printf("=== Table %s ===", name)
		start := time.Now()
		if err := f(); err != nil {
			log.Fatalf("table %s: %v", name, err)
		}
		log.Printf("table %s done in %s", name, time.Since(start).Round(time.Millisecond))
	}

	run("2.1", func() error { return table21(scale) })
	run("2.2", func() error { return table22(scale) })
	run("3.1", func() error { return table31(scale) })
	run("4.1", func() error { return table41and42(scale) })
	run("4.3", func() error { return table43(*large) })
	if *table == "4.2" {
		log.Printf("Table 4.2 is printed together with 4.1 (run -table 4.1)")
	}

	if *trace != "" {
		experiments.Metrics.Dropped("obs/spans_dropped").Add(experiments.Tracer.Dropped())
		if err := writeTrace(*trace, experiments.Tracer); err != nil {
			log.Fatalf("trace: %v", err)
		}
		log.Printf("trace with %d spans written to %s (open at https://ui.perfetto.dev)",
			experiments.Tracer.SpanCount(), *trace)
	}
	if *report != "" {
		if err := writeReport(*report, *table, *small, *large, *workers); err != nil {
			log.Fatalf("report: %v", err)
		}
		log.Printf("run report written to %s", *report)
	}
}

// writeTrace dumps every span of the run as Chrome trace-event JSON.
func writeTrace(path string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeReport dumps the run-wide registry — phases, solve counters and
// iteration histograms aggregated across every table that ran — as a
// run report (same schema as subx -report, minus the single-extraction
// result metrics).
func writeReport(path, table string, small, large bool, workers int) error {
	snap, numerics := experiments.Metrics.Report()
	rep := &obs.RunReport{
		Schema: obs.ReportSchema,
		Tool:   "tables",
		Config: map[string]any{
			"table":   table,
			"small":   small,
			"large":   large,
			"workers": workers,
		},
		Results:  map[string]any{},
		Obs:      snap,
		Numerics: numerics,
	}
	data, err := rep.MarshalIndent()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func table21(scale experiments.Scale) error {
	rows, err := experiments.Table21(scale)
	if err != nil {
		return err
	}
	fmt.Println("\nTable 2.1: Preconditioner effectiveness")
	fmt.Printf("%-16s %s\n", "Preconditioner", "Average # iterations")
	for _, r := range rows {
		fmt.Printf("%-16s %.1f\n", r.Name, r.AvgIterations)
	}
	fmt.Println("(paper: Dirichlet 22.2, Neumann 7.9, area-weighted 6.8)")
	fmt.Println()
	return nil
}

func table22(scale experiments.Scale) error {
	rows, err := experiments.Table22(scale)
	if err != nil {
		return err
	}
	fmt.Println("\nTable 2.2: Solve speed, finite-difference vs eigenfunction")
	fmt.Printf("%-20s %-18s %s\n", "", "Iterations/solve", "Time per solve (s)")
	for _, r := range rows {
		fmt.Printf("%-20s %-18.1f %.4f\n", r.Name, r.ItersPerSolve, r.SecondsPerSolve)
	}
	fmt.Println("(paper: FD 7.0 iters, 3.8 s; eigenfunction 6.0 iters, 0.4 s — ~10x faster)")
	fmt.Println()
	return nil
}

var exampleSetCache = map[experiments.Scale][]*la.Dense{}

// exampleSet returns the Examples 1a/2/3 cases with their exact G,
// memoized so Tables 3.1 and 4.1/4.2 share the expensive naive extraction.
func exampleSet(scale experiments.Scale) ([]experiments.Case, []*la.Dense, error) {
	cases := []experiments.Case{
		experiments.Example1a(scale),
		experiments.Example2(scale),
		experiments.Example3(scale),
	}
	if gs, ok := exampleSetCache[scale]; ok {
		return cases, gs, nil
	}
	gs := make([]*la.Dense, len(cases))
	for i, c := range cases {
		log.Printf("extracting exact G for %s (n=%d, naive %d solves)...", c.Name, c.Layout.N(), c.Layout.N())
		g, err := experiments.ExactG(c)
		if err != nil {
			return nil, nil, err
		}
		gs[i] = g
	}
	exampleSetCache[scale] = gs
	return cases, gs, nil
}

func table31(scale experiments.Scale) error {
	cases, gs, err := exampleSet(scale)
	if err != nil {
		return err
	}
	rows := make([]experiments.SparsifyStats, 0, len(cases)+1)
	for i, c := range cases {
		st, err := experiments.RunSparsify(c, gs[i], core.Wavelet, 0)
		if err != nil {
			return err
		}
		rows = append(rows, st)
	}
	// Example 1b: same regular layout, finite-difference solver.
	st1b, err := example1bWavelet(scale)
	if err != nil {
		return err
	}
	rows = append(rows[:1], append([]experiments.SparsifyStats{st1b}, rows[1:]...)...)
	printTable31(os.Stdout, rows)
	return nil
}

// printTable31 renders Table 3.1 rows (split out so the golden-file test
// can drive it with small fixed layouts).
func printTable31(w io.Writer, rows []experiments.SparsifyStats) {
	fmt.Fprintln(w, "\nTable 3.1: Sparsity and accuracy for wavelet sparsification")
	fmt.Fprintf(w, "%-16s %10s %10s %12s %12s %14s\n",
		"Example", "n", "solves", "sparsity Gws", "max rel err", "thresh: >10%")
	for _, st := range rows {
		fmt.Fprintf(w, "%-16s %10d %10d %12.1f %11.1f%% %13.1f%%\n",
			st.Example, st.N, st.Solves, st.SparsityGw, 100*st.MaxRel, 100*st.FracAbove10Thr)
	}
	fmt.Fprintln(w, "(paper shape: regular/irregular same-size layouts accurate; alternating-size layout breaks down)")
	fmt.Fprintln(w)
}

// example1bWavelet runs the regular layout against the finite-difference
// solver (thesis Example 1b). The FD grid needs the top layer to span whole
// cells, so the profile uses a 2-unit top layer.
func example1bWavelet(scale experiments.Scale) (experiments.SparsifyStats, error) {
	c := experiments.Example1a(scale)
	c.Name = "1b-regular-fd"
	h := 2.0
	prof := &substrate.Profile{A: c.Layout.A, B: c.Layout.B, Grounded: false,
		Layers: []substrate.Layer{
			{Thickness: 2, Sigma: 1},
			{Thickness: 38, Sigma: 100},
		}}
	s, err := fd.New(prof, c.Layout, fd.Options{
		H: h, Placement: fd.Inside, Precond: fd.PrecondFastPoisson, AreaWeighted: true, Tol: 1e-8,
	})
	if err != nil {
		return experiments.SparsifyStats{}, err
	}
	log.Printf("extracting exact G for %s via finite differences (%d nodes)...", c.Name, s.NumNodes())
	g, err := solver.ExtractDense(s)
	if err != nil {
		return experiments.SparsifyStats{}, err
	}
	return experiments.RunSparsify(c, g, core.Wavelet, 0)
}

func table41and42(scale experiments.Scale) error {
	cases, gs, err := exampleSet(scale)
	if err != nil {
		return err
	}
	// Chapter 4 uses: Ex1 = regular, Ex2 = alternating, Ex3 = mixed shapes.
	ch4 := []experiments.Case{cases[0], cases[2], experiments.ExampleMixed()}
	ch4G := []*la.Dense{gs[0], gs[2], nil}
	log.Printf("extracting exact G for %s (n=%d)...", ch4[2].Name, ch4[2].Layout.N())
	gm, err := experiments.ExactG(ch4[2])
	if err != nil {
		return err
	}
	ch4G[2] = gm

	var rows []methodPair
	for i, c := range ch4 {
		lr, err := experiments.RunSparsify(c, ch4G[i], core.LowRank, 0)
		if err != nil {
			return err
		}
		wv, err := experiments.RunSparsify(c, ch4G[i], core.Wavelet, 0)
		if err != nil {
			return err
		}
		rows = append(rows, methodPair{lr, wv})
	}
	printTables41and42(os.Stdout, rows)
	return nil
}

// methodPair holds one example's stats under both sparsification methods.
type methodPair struct{ lr, wv experiments.SparsifyStats }

// printTables41and42 renders Tables 4.1 and 4.2 (split out so the
// golden-file test can drive it with small fixed layouts).
func printTables41and42(w io.Writer, rows []methodPair) {
	fmt.Fprintln(w, "\nTable 4.1: Sparsity/accuracy tradeoff, low-rank vs wavelet (no thresholding)")
	fmt.Fprintf(w, "%-18s %9s %9s %11s %11s %9s %9s\n",
		"Example", "spars(LR)", "spars(W)", "maxerr(LR)", "maxerr(W)", "red(LR)", "red(W)")
	for _, p := range rows {
		fmt.Fprintf(w, "%-18s %9.1f %9.1f %10.1f%% %10.1f%% %9.1f %9.1f\n",
			p.lr.Example, p.lr.SparsityGw, p.wv.SparsityGw,
			100*p.lr.MaxRel, 100*p.wv.MaxRel,
			p.lr.SolveReduction, p.wv.SolveReduction)
	}
	fmt.Fprintln(w, "(paper shape: comparable on the regular grid; low-rank far better on alternating/mixed)")

	fmt.Fprintln(w, "\nTable 4.2: Thresholded (~6x) sparsity/accuracy, low-rank vs wavelet")
	fmt.Fprintf(w, "%-18s %12s %12s %14s %14s\n",
		"Example", "spars Gwt(LR)", ">10%(LR)", "spars Gwt(W)", ">10%(W)")
	for _, p := range rows {
		fmt.Fprintf(w, "%-18s %12.1f %11.2f%% %14.1f %13.2f%%\n",
			p.lr.Example, p.lr.SparsityGwt, 100*p.lr.FracAbove10Thr,
			p.wv.SparsityGwt, 100*p.wv.FracAbove10Thr)
	}
	fmt.Fprintln(w)
}

func table43(includeEx5 bool) error {
	cases := []experiments.Case{experiments.Example4()}
	if includeEx5 {
		cases = append(cases, experiments.Example5())
	} else {
		log.Printf("skipping Example 5 (10240 contacts); pass -large to include it")
	}
	fmt.Println("\nTable 4.3: Low-rank results on larger examples (10% column sample errors)")
	fmt.Printf("%-12s %8s %10s %12s %12s %10s %12s\n",
		"Example", "n", "sparsity", "max rel err", "thresh spars", ">10% thr", "solve red.")
	for _, c := range cases {
		s, err := experiments.BemSolver(c)
		if err != nil {
			return err
		}
		log.Printf("running low-rank extraction on %s (n=%d)...", c.Name, c.Layout.N())
		st, err := experiments.RunSparsifyBlackBox(c, s, core.LowRank, c.Layout.N()/10)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %8d %10.1f %11.1f%% %12.1f %9.2f%% %12.1f\n",
			st.Example, st.N, st.SparsityGw, 100*st.MaxRel, st.SparsityGwt,
			100*st.FracAbove10Thr, st.SolveReduction)
	}
	fmt.Println("(paper: Ex4 sparsity 10/62, 1.7% >10%, reduction 8.7; Ex5 21/129, 3.2%, reduction 18)")
	fmt.Println()
	return nil
}
