package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"sort"

	"subcouple/internal/core"
	"subcouple/internal/experiments"
)

// This file is the -scaling mode: the paper-scale complexity curve as a
// committed, diff-gated artifact. It runs both methods over the
// experiments.ScalingLadder (regular + alternating grids 64→4096 contacts,
// plus the 10240-contact Example 5 rung when -max allows), records the
// bitwise-deterministic facts (solves, Gw/Gwt nnz) next to the machine
// facts (wall time per phase, peak heap/RSS), fits growth exponents per
// (family, method), and writes BENCH_scaling.json. diffScaling then gates
// the deterministic columns and the fitted exponents across runs, so the
// O(log n) story is a guarded trajectory, not a one-off plot.

// scalingSchema versions the BENCH_scaling.json layout.
const scalingSchema = "subcouple-bench-scaling/v1"

// scalingFit is one fitted growth curve: metric(n) ≈ a·n^Exponent over a
// (family, method) ladder. Solves and nnz are deterministic, so their
// exponents move only when the algorithm (or the ladder) changes — which is
// exactly what the diff gate is for. Seconds fits ride along informationally.
type scalingFit struct {
	Family string `json:"family"`
	Method string `json:"method"`
	Metric string `json:"metric"` // "solves", "gw_nnz", or "seconds"
	experiments.PowerFit
}

// scalingFile is the whole BENCH_scaling.json document.
type scalingFile struct {
	Schema      string                     `json:"schema"`
	GoVersion   string                     `json:"go_version"`
	NumCPU      int                        `json:"num_cpu"`
	Short       bool                       `json:"short"`
	MaxContacts int                        `json:"max_contacts"`
	Points      []experiments.ScalingPoint `json:"points"`
	Fits        []scalingFit               `json:"fits"`
}

// scalingMethods are the two extraction methods every rung runs.
var scalingMethods = []core.Method{core.Wavelet, core.LowRank}

// runScaling measures the ladder and writes the scaling document.
func runScaling(out string, short bool, maxContacts int) error {
	ladder := experiments.ScalingLadder(maxContacts)
	if len(ladder) == 0 {
		return fmt.Errorf("scaling ladder is empty for max contacts %d", maxContacts)
	}
	var points []experiments.ScalingPoint
	for _, sc := range ladder {
		g := experiments.SyntheticSolver(sc.Case) // built once, shared by both methods
		for _, m := range scalingMethods {
			p, err := experiments.RunScalingPoint(sc, g, m)
			if err != nil {
				return err
			}
			log.Printf("%-18s %-8s n=%-6d solves=%-5d (reduction %6.1f)  gw_nnz=%-9d %7.2fs  peak_heap=%dMB",
				p.Case, p.Method, p.N, p.Solves, p.SolveReduction, p.GwNNZ, p.Seconds, p.PeakHeapBytes>>20)
			points = append(points, p)
		}
	}
	doc := scalingFile{
		Schema:      scalingSchema,
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		Short:       short,
		MaxContacts: maxContacts,
		Points:      points,
		Fits:        fitScaling(points),
	}
	for _, f := range doc.Fits {
		if f.Metric == "seconds" {
			continue
		}
		log.Printf("fit %s/%s %s: exponent %.3f (R² %.3f, +%.0f per doubling, %d points)",
			f.Family, f.Method, f.Metric, f.Exponent, f.R2, f.PerDoubling, f.Points)
	}
	data, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	log.Printf("scaling report written to %s (%d points, %d fits)", out, len(points), len(doc.Fits))
	return nil
}

// fitScaling fits growth exponents per (family, method) for the metrics the
// thesis makes claims about. Families with a single rung (large-mixed) join
// no fit — FitPowerLaw returns a zero-point fit, which is dropped.
func fitScaling(points []experiments.ScalingPoint) []scalingFit {
	type key struct{ family, method string }
	groups := map[key][]experiments.ScalingPoint{}
	var order []key
	for _, p := range points {
		k := key{p.Family, p.Method}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], p)
	}
	var fits []scalingFit
	for _, k := range order {
		pts := groups[k]
		sort.Slice(pts, func(i, j int) bool { return pts[i].N < pts[j].N })
		ns := make([]int, len(pts))
		solves := make([]float64, len(pts))
		nnz := make([]float64, len(pts))
		secs := make([]float64, len(pts))
		for i, p := range pts {
			ns[i] = p.N
			solves[i] = float64(p.Solves)
			nnz[i] = float64(p.GwNNZ)
			secs[i] = p.Seconds
		}
		for _, m := range []struct {
			name string
			ys   []float64
		}{{"solves", solves}, {"gw_nnz", nnz}, {"seconds", secs}} {
			if f := experiments.FitPowerLaw(ns, m.ys); f.Points >= 2 {
				fits = append(fits, scalingFit{Family: k.family, Method: k.method, Metric: m.name, PowerFit: f})
			}
		}
	}
	return fits
}

// loadScaling reads and schema-checks one scaling file.
func loadScaling(path string) (*scalingFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc scalingFile
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != scalingSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, scalingSchema)
	}
	return &doc, nil
}

// diffScaling compares two scaling documents and returns the regressions.
// Three hard gates, all on machine-independent facts:
//
//   - shared (family, method, n) points must agree exactly on solves and
//     Gw/Gwt nnz — they are bitwise-deterministic, so any drift is an
//     algorithm change that must be looked at (and, if intended, committed
//     by regenerating the baseline);
//   - an old point within the new run's -max budget must still exist: a
//     silently dropped rung would let the curve "improve" by losing its
//     hardest points (rungs above newDoc.MaxContacts are legitimately absent
//     — a -short run is diffed against the full committed file);
//   - fitted exponents for solves and gw_nnz may not drift by more than tol
//     when both sides fit ≥3 rungs — the headline O(log n) claim itself.
//
// Wall times and memory compare informationally only: the committed file
// and a CI runner are different machines by construction.
func diffScaling(w io.Writer, oldDoc, newDoc *scalingFile, tol float64) []string {
	type key struct {
		family, method string
		n              int
	}
	newPts := make(map[key]experiments.ScalingPoint, len(newDoc.Points))
	for _, p := range newDoc.Points {
		newPts[key{p.Family, p.Method, p.N}] = p
	}
	var regressions []string
	for _, op := range oldDoc.Points {
		k := key{op.Family, op.Method, op.N}
		np, ok := newPts[k]
		if !ok {
			if op.N <= newDoc.MaxContacts {
				regressions = append(regressions, fmt.Sprintf(
					"%s/%s n=%d: scaling point disappeared (new run covers up to %d contacts)",
					op.Family, op.Method, op.N, newDoc.MaxContacts))
			} else {
				fmt.Fprintf(w, "%s/%s n=%d: beyond new run's -max %d, not compared\n",
					op.Family, op.Method, op.N, newDoc.MaxContacts)
			}
			continue
		}
		status := "ok"
		if np.Solves != op.Solves {
			status = "REGRESSION"
			regressions = append(regressions, fmt.Sprintf(
				"%s/%s n=%d: solves %d -> %d", op.Family, op.Method, op.N, op.Solves, np.Solves))
		}
		if np.GwNNZ != op.GwNNZ || np.GwtNNZ != op.GwtNNZ {
			status = "REGRESSION"
			regressions = append(regressions, fmt.Sprintf(
				"%s/%s n=%d: nnz gw %d->%d gwt %d->%d",
				op.Family, op.Method, op.N, op.GwNNZ, np.GwNNZ, op.GwtNNZ, np.GwtNNZ))
		}
		var ratio float64
		if op.Seconds > 0 {
			ratio = np.Seconds / op.Seconds
		}
		fmt.Fprintf(w, "%-12s %-8s n=%-6d solves %5d -> %-5d  gw_nnz %9d -> %-9d  %6.2fs -> %-6.2fs (%.2fx, informational)  %s\n",
			op.Family, op.Method, op.N, op.Solves, np.Solves, op.GwNNZ, np.GwNNZ, op.Seconds, np.Seconds, ratio, status)
	}
	for _, np := range newDoc.Points {
		k := key{np.Family, np.Method, np.N}
		found := false
		for _, op := range oldDoc.Points {
			if (key{op.Family, op.Method, op.N}) == k {
				found = true
				break
			}
		}
		if !found {
			fmt.Fprintf(w, "%s/%s n=%d: new scaling point, no baseline\n", np.Family, np.Method, np.N)
		}
	}

	type fitKey struct{ family, method, metric string }
	oldFits := make(map[fitKey]scalingFit, len(oldDoc.Fits))
	for _, f := range oldDoc.Fits {
		oldFits[fitKey{f.Family, f.Method, f.Metric}] = f
	}
	for _, nf := range newDoc.Fits {
		of, ok := oldFits[fitKey{nf.Family, nf.Method, nf.Metric}]
		if !ok {
			continue
		}
		drift := nf.Exponent - of.Exponent
		gated := nf.Metric != "seconds" && of.Points >= 3 && nf.Points >= 3
		status := "informational"
		if gated {
			status = "ok"
			if drift > tol || drift < -tol {
				status = "REGRESSION"
				regressions = append(regressions, fmt.Sprintf(
					"%s/%s %s exponent drifted %.3f -> %.3f (|Δ| %.3f > tol %.3f)",
					nf.Family, nf.Method, nf.Metric, of.Exponent, nf.Exponent,
					drift, tol))
			}
		}
		fmt.Fprintf(w, "fit %-12s %-8s %-8s exponent %7.3f -> %7.3f  %s\n",
			nf.Family, nf.Method, nf.Metric, of.Exponent, nf.Exponent, status)
	}
	return regressions
}
