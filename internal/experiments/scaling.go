package experiments

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"subcouple/internal/core"
	"subcouple/internal/geom"
	"subcouple/internal/la"
	"subcouple/internal/obs"
	"subcouple/internal/solver"
)

// This file is the paper-scale scaling harness: the ladder of layout sizes
// the thesis's complexity story is proved on (256 → 1024 → 4096 → 10240
// contacts, §3.5.1/§4.6), one instrumented extraction per (case, method)
// rung, and the power-law fits that turn the per-point numbers into the
// committed BENCH_scaling.json curve cmd/benchreport gates in CI.
//
// The black box is the SyntheticG kernel: solve counts, Gw structure, and
// respond-batch memory are governed by geometry and rank caps, not by the
// substrate physics, so the curve measured here is the algorithm's own
// scaling at a fraction of the cost of a live solver (and the only way the
// 10240-contact rung fits a nightly job).

// ScalingCase is one rung of the scaling ladder: a layout family at one
// size. The (Family, N) pair is the stable identity cross-run diffs key on.
type ScalingCase struct {
	Family string
	Case   Case
}

// ScalingLadder returns the ladder rungs with at most maxContacts contacts,
// in deterministic (family, size) order:
//
//   - regular: the Fig 3-6 regular grids at n = 64, 256, 1024, 4096 — the
//     layout class the O(log n) solve bound is stated for.
//   - alternating: the Fig 3-8 alternating-size grids at the same sizes;
//     the 4096 rung is exactly the thesis Example 4 (geom.Paper4096).
//   - large-mixed: the thesis Example 5 (geom.Paper10240, 10240 contacts,
//     macro-block holes). A single paper-headline rung — it joins no fit,
//     since its layout class differs from the grid families.
//
// The 64-contact rung exists so CI's -short tier exercises the same code
// path end to end; fits downweight nothing — they use every rung present.
func ScalingLadder(maxContacts int) []ScalingCase {
	var out []ScalingCase
	grid := func(family string, gen func(nx int) *geom.Layout) {
		for _, nx := range []int{8, 16, 32, 64} {
			n := nx * nx
			if n > maxContacts {
				break
			}
			lev := int(math.Round(math.Log2(float64(nx))))
			out = append(out, ScalingCase{Family: family, Case: Case{
				Name:   fmt.Sprintf("%s-%d", family, n),
				Layout: gen(nx), MaxLevel: lev, NP: nx * 4,
			}})
		}
	}
	grid("regular", func(nx int) *geom.Layout {
		return geom.RegularGrid(float64(nx*4), float64(nx*4), nx, nx, 2)
	})
	grid("alternating", func(nx int) *geom.Layout {
		return geom.AlternatingGrid(float64(nx*4), float64(nx*4), nx, nx, 1, 3)
	})
	if maxContacts >= 10240 {
		out = append(out, ScalingCase{Family: "large-mixed", Case: Case{
			Name: "large-mixed-10240", Layout: geom.Paper10240(), MaxLevel: 7, NP: 256,
		}})
	}
	return out
}

// ScalingPoint is one measured (case, method) rung: the committed scaling
// trajectory's row. Solve counts and nnz are bitwise-deterministic and gate
// hard in cross-run diffs; wall times and memory are machine-facts and
// compare informationally.
type ScalingPoint struct {
	Case           string             `json:"case"`
	Family         string             `json:"family"`
	Method         string             `json:"method"`
	N              int                `json:"n"`
	MaxLevel       int                `json:"max_level"`
	Solves         int                `json:"solves"`
	SolveReduction float64            `json:"solve_reduction"`
	Seconds        float64            `json:"seconds"`
	PhaseSeconds   map[string]float64 `json:"phase_seconds"`
	GwNNZ          int                `json:"gw_nnz"`
	GwtNNZ         int                `json:"gwt_nnz"`
	PeakHeapBytes  uint64             `json:"peak_heap_bytes"`
	PeakRSSBytes   uint64             `json:"peak_rss_bytes,omitempty"`
}

// SyntheticSolver builds the scaling harness's black box for one rung: the
// SyntheticG kernel behind the plain Solver interface. The dense matrix is
// built once per case and shared across the methods run on it.
func SyntheticSolver(c Case) *la.Dense { return SyntheticG(c.Layout) }

// RunScalingPoint runs one (case, method) rung: a single instrumented
// extraction against the precomputed synthetic kernel g, with per-phase
// wall times, peak Go heap (sampled) and peak process RSS (kernel VmHWM)
// recorded alongside the solve count and Gw/Gwt nonzeros.
func RunScalingPoint(sc ScalingCase, g *la.Dense, method core.Method) (ScalingPoint, error) {
	c := sc.Case
	ms := obs.NewMetrics()
	runtime.GC() // start each rung from a collected heap so peaks are comparable
	sampler := obs.NewHeapSampler(0)
	start := time.Now()
	res, err := core.Extract(solver.NewDense(g), c.Layout, core.Options{
		Method: method, MaxLevel: c.MaxLevel, ThresholdFactor: 6,
		Workers: Workers, Metrics: ms,
	})
	seconds := time.Since(start).Seconds()
	peakHeap := sampler.Stop()
	if err != nil {
		return ScalingPoint{}, fmt.Errorf("scaling %s/%v: %w", c.Name, method, err)
	}
	p := ScalingPoint{
		Case:           c.Name,
		Family:         sc.Family,
		Method:         method.String(),
		N:              c.Layout.N(),
		MaxLevel:       c.MaxLevel,
		Solves:         res.Solves,
		SolveReduction: float64(c.Layout.N()) / float64(res.Solves),
		Seconds:        seconds,
		PhaseSeconds:   map[string]float64{},
		GwNNZ:          res.Gw.NNZ(),
		GwtNNZ:         res.Gwt.NNZ(),
		PeakHeapBytes:  peakHeap,
	}
	if rss, ok := obs.PeakRSS(); ok {
		p.PeakRSSBytes = rss
	}
	phases, _ := ms.Report()
	for _, ph := range phases.Phases {
		p.PhaseSeconds[ph.Name] = ph.Seconds
	}
	return p, nil
}

// PowerFit is a least-squares fit of y ≈ a·n^Exponent on log-log axes, plus
// the same data fit as y ≈ c + PerDoubling·log2(n). For the thesis's claims
// the power-law exponent is the headline (solves: far below 1; nnz: near
// 1), and PerDoubling is the natural reading of an O(log n) curve ("how
// many extra solves does doubling n cost").
type PowerFit struct {
	Exponent    float64 `json:"exponent"`
	R2          float64 `json:"r2"`
	PerDoubling float64 `json:"per_doubling"`
	Points      int     `json:"points"`
}

// FitPowerLaw fits ys ≈ a·ns^p by least squares on (log n, log y). It needs
// at least two points with positive values; otherwise it returns a
// zero-point fit.
func FitPowerLaw(ns []int, ys []float64) PowerFit {
	var lx, ly, dx []float64
	for i, n := range ns {
		if n <= 0 || i >= len(ys) || ys[i] <= 0 {
			continue
		}
		lx = append(lx, math.Log(float64(n)))
		ly = append(ly, math.Log(ys[i]))
		dx = append(dx, math.Log2(float64(n)))
	}
	fit := PowerFit{Points: len(lx)}
	if len(lx) < 2 {
		return fit
	}
	slope, r2 := leastSquares(lx, ly)
	fit.Exponent, fit.R2 = slope, r2
	// Linear fit of the raw values against log2(n).
	raw := make([]float64, len(ly))
	for i := range ly {
		raw[i] = math.Exp(ly[i])
	}
	fit.PerDoubling, _ = leastSquares(dx, raw)
	return fit
}

// leastSquares returns the slope and R² of the ordinary least-squares line
// through (xs, ys).
func leastSquares(xs, ys []float64) (slope, r2 float64) {
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return 0, 0
	}
	slope = sxy / sxx
	if syy == 0 {
		return slope, 1
	}
	r2 = (sxy * sxy) / (sxx * syy)
	return slope, r2
}
