package experiments

import (
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"subcouple/internal/core"
	"subcouple/internal/geom"
	"subcouple/internal/metrics"
	"subcouple/internal/solver"
)

// permuteLayout returns the layout with contacts reindexed by perm
// (contact i of the result is contact perm[i] of l) — same geometry, new
// index order, which is exactly the degree of freedom golden files can
// never vary.
func permuteLayout(l *geom.Layout, perm []int) *geom.Layout {
	out := &geom.Layout{A: l.A, B: l.B, Name: l.Name + "-permuted"}
	out.Contacts = make([]geom.Contact, len(perm))
	for i, p := range perm {
		out.Contacts[i] = l.Contacts[p]
	}
	return out
}

// TestPermutationMetamorphic checks that extraction commutes with contact
// relabeling: running on a layout with permuted contact indices (and the
// correspondingly permuted black box) must reproduce the permutation of the
// original reconstruction. An index-order bug — mixing layout order with
// quadtree order, a row/column swap, a forgotten reindex in Q assembly —
// breaks this relation with O(1) garbage, while the golden files (which fix
// one ordering) can't see it at all.
//
// The wavelet basis is purely geometric, so its reconstruction is
// permutation-equivariant to roundoff (~1e-15 relative; bound 1e-9 with
// margin). The low-rank method assigns its per-square random samples by
// in-square contact position, so permuting relabels samples and the two
// runs agree only to the method's approximation accuracy (~1e-4 relative
// here; bound 2e-2 with margin — still far below any indexing bug).
func TestPermutationMetamorphic(t *testing.T) {
	layout := geom.AlternatingGrid(64, 64, 16, 16, 1, 3) // 256 contacts
	n := layout.N()
	perm := rand.New(rand.NewSource(42)).Perm(n)
	permuted := permuteLayout(layout, perm)
	if err := permuted.Validate(); err != nil {
		t.Fatal(err)
	}
	g := SyntheticG(layout)
	gp := SyntheticG(permuted)
	scale := 0.0
	for j := 0; j < n; j++ {
		if d := math.Abs(g.At(j, j)); d > scale {
			scale = d
		}
	}
	for _, tc := range []struct {
		method core.Method
		relTol float64
	}{
		{core.Wavelet, 1e-9},
		{core.LowRank, 2e-2},
	} {
		opt := core.Options{Method: tc.method, MaxLevel: 4, ThresholdFactor: 6}
		res, err := core.Extract(solver.NewDense(g), layout, opt)
		if err != nil {
			t.Fatalf("%v: %v", tc.method, err)
		}
		resP, err := core.Extract(solver.NewDense(gp), permuted, opt)
		if err != nil {
			t.Fatalf("%v permuted: %v", tc.method, err)
		}
		maxd := 0.0
		for j := 0; j < n; j++ {
			cp := resP.Column(j)
			c := res.Column(perm[j])
			for i := 0; i < n; i++ {
				if d := math.Abs(cp[i] - c[perm[i]]); d > maxd {
					maxd = d
				}
			}
		}
		t.Logf("%v: max |G_perm − P·G·Pᵀ| = %.3g (%.3g of scale)", tc.method, maxd, maxd/scale)
		if maxd > tc.relTol*scale {
			t.Errorf("%v: permuted extraction deviates %.3g (%.3g of scale %.3g), tolerance %g — index-order bug?",
				tc.method, maxd, maxd/scale, scale, tc.relTol)
		}
	}
}

// paperScale gates the 4096-contact at-scale tests: they cost minutes, so
// they run in the nightly scaling workflow (SUBCOUPLE_PAPER_SCALE=1), never
// in -short or plain CI test runs.
func paperScale(t *testing.T) ScalingCase {
	t.Helper()
	if testing.Short() {
		t.Skip("paper-scale test: skipped in -short")
	}
	if os.Getenv("SUBCOUPLE_PAPER_SCALE") == "" {
		t.Skip("paper-scale test: set SUBCOUPLE_PAPER_SCALE=1 (nightly scaling workflow)")
	}
	for _, sc := range ScalingLadder(4096) {
		if sc.Case.Name == "alternating-4096" {
			return sc
		}
	}
	t.Fatal("alternating-4096 rung missing from ladder")
	return ScalingCase{}
}

// TestAtScale4096Correctness is the repo's largest correctness test: on the
// thesis Example 4 geometry (4096 contacts) it checks, for both methods,
// that the reconstruction G ≈ Q·Gw·Qᵀ matches the exact operator on sampled
// columns and that a sampled principal submatrix still satisfies the
// conductance-matrix properties (symmetry, positive diagonal, non-positive
// off-diagonals, non-negative column sums — valid on any principal
// submatrix of a diagonally dominant G, reusing the metrics helpers).
func TestAtScale4096Correctness(t *testing.T) {
	sc := paperScale(t)
	g := SyntheticSolver(sc.Case)
	n := sc.Case.Layout.N()
	sample := metrics.SampleColumns(n, 128)
	for _, method := range []core.Method{core.Wavelet, core.LowRank} {
		res, err := core.Extract(solver.NewDense(g), sc.Case.Layout, core.Options{
			Method: method, MaxLevel: sc.Case.MaxLevel, ThresholdFactor: 6,
		})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		// Accuracy on sampled exact columns (the thesis's §4.6 estimate).
		approx := make([][]float64, len(sample))
		for si, j := range sample {
			approx[si] = res.Column(j)
		}
		st := metrics.Compare(g, res.Column, sample, 0.1)
		t.Logf("%v: sampled maxrel %.4f, frac>10%% %.4f", method, st.MaxRel, st.FracAbove)
		if st.MaxRel > 0.30 {
			t.Errorf("%v: sampled max relative error %.3f exceeds 30%%", method, st.MaxRel)
		}
		if st.FracAbove > 0.01 {
			t.Errorf("%v: %.2f%% of sampled entries off by >10%%", method, 100*st.FracAbove)
		}
		// Conductance properties of the sampled principal submatrix.
		subCol := func(sj int) []float64 {
			col := approx[sj]
			out := make([]float64, len(sample))
			for si, i := range sample {
				out[si] = col[i]
			}
			return out
		}
		if err := metrics.CheckConductance(len(sample), subCol, false, 0.02); err != nil {
			t.Errorf("%v sampled submatrix: %v", method, err)
		}
	}
}

// TestAtScale4096WorkerDeterminism extends the bitwise worker-count
// guarantee to paper scale: at 4096 contacts, for both methods, the
// extracted Gw/Gwt/solves and a probe apply must be bitwise identical for
// workers ∈ {1, 2, NumCPU}.
func TestAtScale4096WorkerDeterminism(t *testing.T) {
	sc := paperScale(t)
	g := SyntheticSolver(sc.Case)
	n := sc.Case.Layout.N()
	probe := make([]float64, n)
	for i := range probe {
		probe[i] = float64(i%7) - 3
	}
	workerCounts := []int{1, 2, runtime.NumCPU()}
	for _, method := range []core.Method{core.Wavelet, core.LowRank} {
		var refApply []float64
		var refSolves, refNNZ int
		for _, w := range workerCounts {
			res, err := core.Extract(solver.NewDense(g), sc.Case.Layout, core.Options{
				Method: method, MaxLevel: sc.Case.MaxLevel, ThresholdFactor: 6, Workers: w,
			})
			if err != nil {
				t.Fatalf("%v workers=%d: %v", method, w, err)
			}
			app := res.Apply(probe)
			if refApply == nil {
				refApply, refSolves, refNNZ = app, res.Solves, res.Gw.NNZ()
				continue
			}
			if res.Solves != refSolves {
				t.Errorf("%v workers=%d: %d solves vs %d reference", method, w, res.Solves, refSolves)
			}
			if res.Gw.NNZ() != refNNZ {
				t.Errorf("%v workers=%d: Gw nnz %d vs %d reference", method, w, res.Gw.NNZ(), refNNZ)
			}
			for i := range app {
				if app[i] != refApply[i] {
					t.Fatalf("%v workers=%d: Apply[%d] = %v vs %v (not bitwise identical)",
						method, w, i, app[i], refApply[i])
				}
			}
		}
	}
}
