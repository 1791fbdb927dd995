// Package subcouple_test is the benchmark harness: one benchmark per thesis
// table plus the ablations called out in DESIGN.md. Benchmarks use the
// Small-scale examples so the whole suite stays runnable; cmd/tables
// regenerates the thesis-size numbers.
package subcouple_test

import (
	"sync"
	"testing"

	"subcouple/internal/bem"
	"subcouple/internal/core"
	"subcouple/internal/dct"
	"subcouple/internal/experiments"
	"subcouple/internal/fd"
	"subcouple/internal/geom"
	"subcouple/internal/la"
	"subcouple/internal/lowrank"
	"subcouple/internal/moments"
	"subcouple/internal/quadtree"
	"subcouple/internal/solver"
	"subcouple/internal/substrate"
	"subcouple/internal/wavelet"
)

// --- shared fixtures -------------------------------------------------------

var (
	fixOnce    sync.Once
	fixCase    experiments.Case
	fixAltCase experiments.Case
	fixG       *la.Dense
	fixAltG    *la.Dense
)

func fixtures(b *testing.B) {
	b.Helper()
	fixOnce.Do(func() {
		fixCase = experiments.Example1a(experiments.Small)
		fixAltCase = experiments.Example3(experiments.Small)
		var err error
		fixG, err = experiments.ExactG(fixCase)
		if err != nil {
			panic(err)
		}
		fixAltG, err = experiments.ExactG(fixAltCase)
		if err != nil {
			panic(err)
		}
	})
}

// --- one benchmark per table ----------------------------------------------

// BenchmarkTable21Preconditioners regenerates Table 2.1: the fast-Poisson
// preconditioner blends over a wavelet sparsification run's solves.
func BenchmarkTable21Preconditioners(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table21(experiments.Small)
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].AvgIterations <= rows[2].AvgIterations {
			b.Logf("warning: Dirichlet (%.1f) not worse than area-weighted (%.1f)",
				rows[0].AvgIterations, rows[2].AvgIterations)
		}
	}
}

// BenchmarkTable22SolverSpeed regenerates Table 2.2: FD vs eigenfunction
// solve cost.
func BenchmarkTable22SolverSpeed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table22(experiments.Small)
		if err != nil {
			b.Fatal(err)
		}
		if rows[1].SecondsPerSolve >= rows[0].SecondsPerSolve {
			b.Logf("warning: eigenfunction (%g s) not faster than FD (%g s)",
				rows[1].SecondsPerSolve, rows[0].SecondsPerSolve)
		}
	}
}

// BenchmarkTable31Wavelet regenerates a Table 3.1 row: wavelet
// sparsification of the regular example.
func BenchmarkTable31Wavelet(b *testing.B) {
	fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSparsify(fixCase, fixG, core.Wavelet, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable41LowRank regenerates a Table 4.1 row: low-rank
// sparsification of the alternating-size example where the wavelet method
// breaks down.
func BenchmarkTable41LowRank(b *testing.B) {
	fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSparsify(fixAltCase, fixAltG, core.LowRank, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable42Thresholded regenerates a Table 4.2 row (thresholded
// tradeoff, both methods).
func BenchmarkTable42Thresholded(b *testing.B) {
	fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSparsify(fixAltCase, fixAltG, core.Wavelet, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable43Large runs the Table 4.3 pipeline end-to-end against a
// live black-box solver (scaled-down: 1024 contacts).
func BenchmarkTable43Large(b *testing.B) {
	c := experiments.Case{
		Name:     "ex4-bench-1024",
		Layout:   geom.AlternatingGrid(128, 128, 32, 32, 1, 3),
		MaxLevel: 5,
		NP:       128,
	}
	for i := 0; i < b.N; i++ {
		s, err := experiments.BemSolver(c)
		if err != nil {
			b.Fatal(err)
		}
		st, err := experiments.RunSparsifyBlackBox(c, s, core.LowRank, 32)
		if err != nil {
			b.Fatal(err)
		}
		if st.SolveReduction < 1.5 {
			b.Logf("warning: solve reduction %.2f at n=1024", st.SolveReduction)
		}
	}
}

// --- ablations (design choices called out in DESIGN.md) --------------------

// BenchmarkExtractSerial/Parallel are the parallel-engine ablation pair:
// the same end-to-end low-rank extraction of the 256-contact alternating
// example against the live eigenfunction solver, fully serial (Workers: 1)
// vs the whole worker pool (Workers: 0 = all CPUs). The two produce
// bitwise-identical results; on a multi-core machine the parallel variant
// should win by roughly the core count.
func BenchmarkExtractSerial(b *testing.B)   { benchExtractWorkers(b, 1) }
func BenchmarkExtractParallel(b *testing.B) { benchExtractWorkers(b, 0) }

func benchExtractWorkers(b *testing.B, workers int) {
	c := experiments.Example3(experiments.Small) // 256 contacts
	s, err := experiments.BemSolver(c)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Extract(s, c.Layout, core.Options{
			Method: core.LowRank, MaxLevel: c.MaxLevel, Workers: workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Solves), "solves")
	}
}

// BenchmarkAblationCombineSolvesOn/Off measure the extraction with and
// without the §3.5 combine-solves technique (the Off variant pays one
// black-box call per vector).
func BenchmarkAblationCombineSolvesOn(b *testing.B)  { ablationCombine(b, true) }
func BenchmarkAblationCombineSolvesOff(b *testing.B) { ablationCombine(b, false) }

func ablationCombine(b *testing.B, on bool) {
	fixtures(b)
	opt := lowrank.DefaultOptions()
	opt.CombineSolves = on
	tree, err := quadtree.Build(fixCase.Layout, fixCase.MaxLevel)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := solver.NewCounting(solver.NewDense(fixG))
		if _, err := lowrank.Build(fixCase.Layout, tree, c, opt); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(c.Solves), "solves")
	}
}

// BenchmarkAblationRefinementOn/Off measure the symmetric refinement
// (4.16/4.24): the thesis reports a <2x cost for a dramatic accuracy gain.
func BenchmarkAblationRefinementOn(b *testing.B)  { ablationRefine(b, true) }
func BenchmarkAblationRefinementOff(b *testing.B) { ablationRefine(b, false) }

func ablationRefine(b *testing.B, on bool) {
	fixtures(b)
	opt := lowrank.DefaultOptions()
	opt.Refine = on
	tree, err := quadtree.Build(fixCase.Layout, fixCase.MaxLevel)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := lowrank.Build(fixCase.Layout, tree, solver.NewDense(fixG), opt)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, fixCase.Layout.N())
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep.Apply(x)
	}
}

// BenchmarkAblationMomentOrder sweeps the wavelet moment order p.
func BenchmarkAblationMomentOrder(b *testing.B) {
	fixtures(b)
	tree, err := quadtree.Build(fixCase.Layout, fixCase.MaxLevel)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []int{0, 1, 2} {
		b.Run([]string{"p0", "p1", "p2"}[p], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				basis, err := wavelet.NewBasis(fixCase.Layout, tree, p)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := basis.ExtractCombined(solver.NewDense(fixG)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- operator application: sparse representation vs dense G ----------------

func BenchmarkApplySparsified(b *testing.B) {
	fixtures(b)
	res, err := core.Extract(solver.NewDense(fixG), fixCase.Layout, core.Options{
		Method: core.LowRank, MaxLevel: fixCase.MaxLevel,
	})
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, res.N())
	for i := range x {
		x[i] = float64(i % 5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res.Apply(x)
	}
}

func BenchmarkApplyDense(b *testing.B) {
	fixtures(b)
	x := make([]float64, fixG.Rows)
	for i := range x {
		x[i] = float64(i % 5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fixG.MulVec(x)
	}
}

// --- substrate-solver microbenchmarks ---------------------------------------

func BenchmarkFDSolve(b *testing.B) {
	layout := geom.RegularGrid(32, 32, 8, 8, 2)
	prof := substrate.Uniform(32, 8, 1, true)
	s, err := fd.New(prof, layout, fd.Options{H: 1, Placement: fd.Inside, Precond: fd.PrecondFastPoisson, AreaWeighted: true})
	if err != nil {
		b.Fatal(err)
	}
	v := make([]float64, layout.N())
	v[0] = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBemSolve(b *testing.B) {
	layout := geom.RegularGrid(32, 32, 8, 8, 2)
	prof := substrate.TwoLayer(32, 8, 1, true)
	s, err := bem.New(prof, layout, 32)
	if err != nil {
		b.Fatal(err)
	}
	v := make([]float64, layout.N())
	v[0] = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(v); err != nil {
			b.Fatal(err)
		}
	}
}

// --- kernel microbenchmarks --------------------------------------------------

func BenchmarkJacobiSVD(b *testing.B) {
	m := la.NewDense(64, 16)
	for i := range m.Data {
		m.Data[i] = float64((i*2654435761)%1000)/500 - 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		la.JacobiSVD(m)
	}
}

func BenchmarkFullRightBasis(b *testing.B) {
	m := la.NewDense(6, 128)
	for i := range m.Data {
		m.Data[i] = float64((i*40503)%997)/500 - 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		la.FullRightBasis(m)
	}
}

// dctSink keeps BenchmarkDCT2D's results live.
var dctSink []float64

// BenchmarkDCT2D times the BEM solver's per-iteration transform pair at the
// extraction size: a 128×128 DCT-II then DCT-III, on a fresh copy of one
// fixed field each iteration, so every iteration transforms the same finite
// values. "plan" reuses one dct.Plan, as a solve does; "throwaway" calls
// dct.DCT2D2/DCT2D3, which build a plan per call.
func BenchmarkDCT2D(b *testing.B) {
	src := make([]float64, 128*128)
	for i := range src {
		src[i] = float64(i % 17)
	}
	b.Run("plan", func(b *testing.B) {
		p := dct.NewPlan(128, 128)
		a := make([]float64, len(src))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(a, src)
			p.DCT2D2(a)
			p.DCT2D3(a)
		}
		dctSink = a
	})
	b.Run("throwaway", func(b *testing.B) {
		a := make([]float64, len(src))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(a, src)
			dct.DCT2D2(a, 128, 128)
			dct.DCT2D3(a, 128, 128)
		}
		dctSink = a
	})
}

func BenchmarkMomentMatrix(b *testing.B) {
	layout := geom.RegularGrid(128, 128, 32, 32, 2)
	contacts := make([]int, layout.N())
	for i := range contacts {
		contacts[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		moments.Matrix(layout, contacts, 64, 64, 2, 128)
	}
}

func BenchmarkWaveletBasisConstruction(b *testing.B) {
	fixtures(b)
	tree, err := quadtree.Build(fixCase.Layout, fixCase.MaxLevel)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wavelet.NewBasis(fixCase.Layout, tree, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFDPreconditioners compares a single FD solve under each
// preconditioner (none / IC0 / fast-Poisson / multigrid).
func BenchmarkFDPreconditioners(b *testing.B) {
	prof := &substrate.Profile{A: 32, B: 32, Grounded: false, Layers: []substrate.Layer{
		{Thickness: 4, Sigma: 1}, {Thickness: 12, Sigma: 100},
	}}
	layout := geom.RegularGrid(32, 32, 4, 4, 2)
	for _, cfg := range []struct {
		name string
		p    fd.Precond
	}{
		{"none", fd.PrecondNone},
		{"ic0", fd.PrecondIC0},
		{"fastpoisson", fd.PrecondFastPoisson},
		{"multigrid", fd.PrecondMultigrid},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			s, err := fd.New(prof, layout, fd.Options{
				H: 1, Placement: fd.Outside, Precond: cfg.p, AreaWeighted: true, Tol: 1e-8,
			})
			if err != nil {
				b.Fatal(err)
			}
			v := make([]float64, layout.N())
			v[0] = 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Solve(v); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(s.AvgIterations(), "iters")
		})
	}
}

// BenchmarkBemPreconditioner reproduces the §2.3.1 negative result as a
// benchmark: the fast-solver preconditioner for the eigenfunction approach
// buys little, where exact per-contact blocks (the default) cut the
// iterations.
func BenchmarkBemPreconditioner(b *testing.B) {
	prof := substrate.TwoLayer(64, 20, 1, true)
	layout := geom.RegularGrid(64, 64, 8, 8, 2)
	for _, pc := range []struct {
		name    string
		precond bem.Precond
	}{
		{"plain", bem.PrecondNone},
		{"fastsolver", bem.PrecondFastSolver},
		{"blockjacobi", bem.PrecondBlockJacobi},
	} {
		b.Run(pc.name, func(b *testing.B) {
			s, err := bem.New(prof, layout, 64)
			if err != nil {
				b.Fatal(err)
			}
			s.Precond = pc.precond
			v := make([]float64, layout.N())
			v[0] = 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Solve(v); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(s.AvgIterations(), "iters")
		})
	}
}

// BenchmarkFactoredQApply compares the O(n) factored-Q apply (§3.4.3) with
// the explicit sparse Q.
func BenchmarkFactoredQApply(b *testing.B) {
	layout := geom.RegularGrid(128, 128, 32, 32, 2)
	tree, err := quadtree.Build(layout, 5)
	if err != nil {
		b.Fatal(err)
	}
	basis, err := wavelet.NewBasis(layout, tree, 2)
	if err != nil {
		b.Fatal(err)
	}
	f, err := basis.Factored()
	if err != nil {
		b.Fatal(err)
	}
	q := basis.Q()
	x := make([]float64, layout.N())
	for i := range x {
		x[i] = float64(i % 9)
	}
	b.Run("factored", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.Apply(x)
		}
	})
	b.Run("explicit", func(b *testing.B) {
		perm := make([]float64, len(x))
		copy(perm, x)
		for i := 0; i < b.N; i++ {
			q.MulVec(perm)
		}
	})
}
