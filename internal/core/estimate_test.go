package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"subcouple/internal/bem"
	"subcouple/internal/fd"
	"subcouple/internal/geom"
	"subcouple/internal/la"
	"subcouple/internal/solver"
	"subcouple/internal/substrate"
)

func TestEstimateError(t *testing.T) {
	layout, g := setup(t)
	ds := solver.NewDense(g)
	res, err := Extract(ds, layout, Options{Method: LowRank, MaxLevel: 4, ThresholdFactor: 6})
	if err != nil {
		t.Fatal(err)
	}
	est, err := res.EstimateError(ds, 6, false)
	if err != nil {
		t.Fatal(err)
	}
	if est.Probes != 6 {
		t.Fatalf("probes = %d", est.Probes)
	}
	if est.MaxRel <= 0 || est.MaxRel > 0.05 {
		t.Fatalf("unthresholded operator error estimate %g out of expected range", est.MaxRel)
	}
	if est.MeanRel > est.MaxRel {
		t.Fatalf("mean %g exceeds max %g", est.MeanRel, est.MaxRel)
	}
	// The thresholded representation must estimate worse (or equal).
	estT, err := res.EstimateError(ds, 6, true)
	if err != nil {
		t.Fatal(err)
	}
	if estT.MaxRel < est.MaxRel {
		t.Fatalf("thresholded estimate %g better than unthresholded %g", estT.MaxRel, est.MaxRel)
	}
	// Default probe count.
	est0, err := res.EstimateError(ds, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if est0.Probes != 8 {
		t.Fatalf("default probes = %d", est0.Probes)
	}
	// Mismatched solver rejected.
	if _, err := res.EstimateError(solver.NewDense(la.Eye(3)), 4, false); err == nil {
		t.Fatalf("expected contact-count error")
	}
}

// altZeroSolver answers every second probe with an identically-zero
// current vector and the exact G·x otherwise, and counts how often the
// batch entry point is used.
type altZeroSolver struct {
	g       *la.Dense
	calls   int
	batches int
}

func (a *altZeroSolver) N() int { return a.g.Rows }

func (a *altZeroSolver) Solve(v []float64) ([]float64, error) {
	zero := a.calls%2 == 1
	a.calls++
	if zero {
		return make([]float64, len(v)), nil
	}
	return a.g.MulVec(v), nil
}

func (a *altZeroSolver) SolveBatch(vs [][]float64) ([][]float64, error) {
	a.batches++
	out := make([][]float64, len(vs))
	for i, v := range vs {
		r, err := a.Solve(v)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

func TestEstimateErrorSkipsZeroProbesAndBatches(t *testing.T) {
	layout, g := setup(t)
	ds := solver.NewDense(g)
	res, err := Extract(ds, layout, Options{Method: LowRank, MaxLevel: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Baseline: all probes countable.
	base, err := res.EstimateError(ds, 6, false)
	if err != nil {
		t.Fatal(err)
	}
	if base.Counted != 6 {
		t.Fatalf("baseline counted = %d, want 6", base.Counted)
	}

	alt := &altZeroSolver{g: g}
	est, err := res.EstimateError(alt, 6, false)
	if err != nil {
		t.Fatal(err)
	}
	if alt.batches != 1 {
		t.Fatalf("probe solves used %d batches, want exactly 1 (one-by-one solves?)", alt.batches)
	}
	if est.Probes != 6 || est.Counted != 3 {
		t.Fatalf("probes/counted = %d/%d, want 6/3", est.Probes, est.Counted)
	}
	// Probes 1, 3, 5 returned zero responses: rel error is undefined there,
	// and the mean must average the remaining 3, not divide by 6 (the old
	// bug halved it). Recompute the expectation exactly: same seed-7 probes,
	// rel measured only on the even-index (countable) probes.
	rng := rand.New(rand.NewSource(7))
	var wantSum, wantMax float64
	for p := 0; p < 6; p++ {
		x := make([]float64, res.N())
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		la.Scale(1/la.Norm2(x), x)
		if p%2 == 1 {
			continue
		}
		want := g.MulVec(x)
		got := res.Apply(x)
		diff := make([]float64, len(got))
		for i := range diff {
			diff[i] = got[i] - want[i]
		}
		rel := la.Norm2(diff) / la.Norm2(want)
		wantSum += rel
		if rel > wantMax {
			wantMax = rel
		}
	}
	if wantMean := wantSum / 3; math.Abs(est.MeanRel-wantMean) > 1e-12*wantMean {
		t.Fatalf("MeanRel = %g, want %g (divided by k instead of counted?)", est.MeanRel, wantMean)
	}
	if math.Abs(est.MaxRel-wantMax) > 1e-12*wantMax {
		t.Fatalf("MaxRel = %g, want %g", est.MaxRel, wantMax)
	}

	// Every probe zero: no NaN, just an empty estimate.
	zero := &altZeroSolver{g: la.NewDense(g.Rows, g.Cols)}
	estZ, err := res.EstimateError(zero, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if estZ.Counted != 0 || estZ.MeanRel != 0 || estZ.MaxRel != 0 {
		t.Fatalf("all-zero solver: %+v, want zero estimate", estZ)
	}
}

type failingSolver struct{ n int }

func (f *failingSolver) N() int { return f.n }
func (f *failingSolver) Solve([]float64) ([]float64, error) {
	return nil, errors.New("substrate solver exploded")
}

func TestEstimateErrorPropagatesSolverFailure(t *testing.T) {
	layout, g := setup(t)
	res, err := Extract(solver.NewDense(g), layout, Options{Method: LowRank, MaxLevel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.EstimateError(&failingSolver{n: layout.N()}, 2, false); err == nil {
		t.Fatalf("expected propagated solver error")
	}
}

func TestExtractPropagatesSolverFailure(t *testing.T) {
	layout, _ := setup(t)
	for _, m := range []Method{Wavelet, LowRank} {
		if _, err := Extract(&failingSolver{n: layout.N()}, layout, Options{Method: m, MaxLevel: 4}); err == nil {
			t.Fatalf("%v: expected propagated solver error", m)
		}
	}
}

// poisonedSolver answers like the dense G, except that its 40th call, in
// whatever order concurrent calls arrive, returns bad in one entry: a
// faulty black box.
type poisonedSolver struct {
	*solver.Dense
	bad   float64
	calls atomic.Int64
}

func (p *poisonedSolver) Solve(v []float64) ([]float64, error) {
	r, err := p.Dense.Solve(v)
	if err == nil && p.calls.Add(1) == 40 {
		r[len(r)/2] = p.bad
	}
	return r, err
}

// panickingSolver answers like the dense G, except that its 40th call, in
// whatever order concurrent calls arrive, panics: a black box with a bug.
type panickingSolver struct {
	*solver.Dense
	calls atomic.Int64
}

func (p *panickingSolver) Solve(v []float64) ([]float64, error) {
	if p.calls.Add(1) == 40 {
		panic("black box fault")
	}
	return p.Dense.Solve(v)
}

// TestExtractFailsOnFaultyBlackBox: a black box that panics, or an
// eigenfunction or finite-difference solver that cannot converge in its
// iteration limit, fails the extraction with an error, for both methods and
// any worker count. The fd entry runs on a smaller layout of its own, where
// a grid solve is cheap.
func TestExtractFailsOnFaultyBlackBox(t *testing.T) {
	layout, g := setup(t)
	small := geom.RegularGrid(32, 32, 8, 8, 2)
	for _, box := range []struct {
		name     string
		layout   *geom.Layout
		maxLevel int
		make     func(t *testing.T) solver.Solver
		want     string
	}{
		{"panic", layout, 4, func(*testing.T) solver.Solver {
			return &panickingSolver{Dense: solver.NewDense(g)}
		}, "panicked: black box fault"},
		{"no-convergence", layout, 4, func(t *testing.T) solver.Solver {
			s, err := bem.New(substrate.TwoLayer(64, 20, 1, true), layout, 64)
			if err != nil {
				t.Fatal(err)
			}
			s.MaxIts = 2
			return s
		}, "did not converge in 2 iterations"},
		{"fd-no-convergence", small, 3, func(t *testing.T) solver.Solver {
			prof := substrate.TwoLayer(32, 10, 1, true)
			prof.Layers[0].Thickness = 2 // align the layer boundary with the grid
			prof.Layers[1].Thickness = 7
			s, err := fd.New(prof, small, fd.Options{
				H: 1, Placement: fd.Inside, Precond: fd.PrecondFastPoisson, AreaWeighted: true,
				MaxIts: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}, "did not converge in 2 iterations"},
	} {
		for _, m := range []Method{Wavelet, LowRank} {
			for _, w := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%v/workers%d", box.name, m, w), func(t *testing.T) {
					res, err := Extract(box.make(t), box.layout, Options{Method: m, MaxLevel: box.maxLevel, Workers: w})
					if err == nil {
						t.Fatalf("extraction succeeded (%d solves) on a faulty black box", res.Solves)
					}
					if !strings.Contains(err.Error(), box.want) {
						t.Fatalf("error %q does not say %q", err, box.want)
					}
				})
			}
		}
	}
}

// TestExtractRejectsNonFiniteAnswers: one NaN or ±Inf in one black-box
// answer fails the extraction, for both methods and any worker count, with
// an error that names the solve.
func TestExtractRejectsNonFiniteAnswers(t *testing.T) {
	layout, g := setup(t)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, m := range []Method{Wavelet, LowRank} {
			for _, w := range []int{1, 4} {
				t.Run(fmt.Sprintf("%v/%v/workers%d", bad, m, w), func(t *testing.T) {
					s := &poisonedSolver{Dense: solver.NewDense(g), bad: bad}
					res, err := Extract(s, layout, Options{Method: m, MaxLevel: 4, Workers: w})
					if err == nil {
						t.Fatalf("extraction succeeded (%d solves) on a poisoned answer", res.Solves)
					}
					want := fmt.Sprintf("returned %v for contact %d", bad, layout.N()/2)
					if !strings.Contains(err.Error(), "black-box solve") || !strings.Contains(err.Error(), want) {
						t.Fatalf("error %q does not name the solve and the %v entry", err, bad)
					}
				})
			}
		}
	}
}
