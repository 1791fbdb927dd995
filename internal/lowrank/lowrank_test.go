package lowrank

import (
	"math"
	"testing"

	"subcouple/internal/bem"
	"subcouple/internal/geom"
	"subcouple/internal/la"
	"subcouple/internal/quadtree"
	"subcouple/internal/solver"
	"subcouple/internal/sparse"
	"subcouple/internal/substrate"
)

var gCache = map[string]*la.Dense{}

func exactG(t *testing.T, layout *geom.Layout, np int) *la.Dense {
	t.Helper()
	if g, ok := gCache[layout.Name]; ok {
		return g
	}
	prof := substrate.TwoLayer(layout.A, 20, 1, true)
	s, err := bem.New(prof, layout, np)
	if err != nil {
		t.Fatal(err)
	}
	g, err := solver.ExtractDense(s)
	if err != nil {
		t.Fatal(err)
	}
	gCache[layout.Name] = g
	return g
}

func regularSetup(t *testing.T) (*geom.Layout, *quadtree.Tree, *la.Dense) {
	t.Helper()
	layout := geom.RegularGrid(64, 64, 16, 16, 2)
	tree, err := quadtree.Build(layout, 4)
	if err != nil {
		t.Fatal(err)
	}
	return layout, tree, exactG(t, layout, 64)
}

func alternatingSetup(t *testing.T) (*geom.Layout, *quadtree.Tree, *la.Dense) {
	t.Helper()
	layout := geom.AlternatingGrid(64, 64, 16, 16, 1, 3)
	tree, err := quadtree.Build(layout, 4)
	if err != nil {
		t.Fatal(err)
	}
	return layout, tree, exactG(t, layout, 64)
}

func buildRep(t *testing.T, layout *geom.Layout, tree *quadtree.Tree, g *la.Dense, opt Options) (*Rep, *solver.Counting) {
	t.Helper()
	c := solver.NewCounting(solver.NewDense(g))
	rep, err := Build(layout, tree, c, opt)
	if err != nil {
		t.Fatal(err)
	}
	return rep, c
}

func matvecRelError(g *la.Dense, apply func([]float64) []float64, trials int) float64 {
	n := g.Rows
	var worst float64
	for trial := 0; trial < trials; trial++ {
		x := make([]float64, n)
		for i := range x {
			x[i] = math.Sin(float64(3*trial + 7*i))
		}
		want := g.MulVec(x)
		got := apply(x)
		diff := make([]float64, n)
		for i := range diff {
			diff[i] = got[i] - want[i]
		}
		if e := la.Norm2(diff) / la.Norm2(want); e > worst {
			worst = e
		}
	}
	return worst
}

func TestRowBasisApplyAccuracy(t *testing.T) {
	layout, tree, g := regularSetup(t)
	rep, counting := buildRep(t, layout, tree, g, DefaultOptions())
	// The solve count is O(log n) with an n-independent per-level constant;
	// at n=256 it is near n (the thesis's reduction factors only exceed 3
	// at n >= 1024 — see cmd/tables for Table 4.1/4.3).
	if counting.Solves > 2*layout.N() {
		t.Fatalf("phase 1 used %d solves for n=%d", counting.Solves, layout.N())
	}
	if e := matvecRelError(g, rep.Apply, 5); e > 0.02 {
		t.Fatalf("row-basis apply error %g", e)
	}
}

func TestRowBasisApplyAccuracyAlternating(t *testing.T) {
	layout, tree, g := alternatingSetup(t)
	rep, _ := buildRep(t, layout, tree, g, DefaultOptions())
	if e := matvecRelError(g, rep.Apply, 5); e > 0.03 {
		t.Fatalf("row-basis apply error %g on alternating layout", e)
	}
}

func TestRefinementImprovesAccuracy(t *testing.T) {
	layout, tree, g := regularSetup(t)
	refined, _ := buildRep(t, layout, tree, g, DefaultOptions())
	opt := DefaultOptions()
	opt.Refine = false
	plain, _ := buildRep(t, layout, tree, g, opt)
	eRef := matvecRelError(g, refined.Apply, 5)
	ePlain := matvecRelError(g, plain.Apply, 5)
	if eRef >= ePlain {
		t.Fatalf("refinement did not help: refined %g vs plain %g", eRef, ePlain)
	}
}

func TestCombineSolvesAblation(t *testing.T) {
	layout, tree, g := regularSetup(t)
	_, combined := buildRep(t, layout, tree, g, DefaultOptions())
	opt := DefaultOptions()
	opt.CombineSolves = false
	direct, directCount := buildRep(t, layout, tree, g, opt)
	if combined.Solves >= directCount.Solves {
		t.Fatalf("combine-solves (%d) not fewer than direct (%d)", combined.Solves, directCount.Solves)
	}
	// Direct responses are exact, so the representation must be at least
	// as accurate without combining.
	if e := matvecRelError(g, direct.Apply, 3); e > 0.02 {
		t.Fatalf("direct-solve representation error %g", e)
	}
}

func TestTransformOrthogonalAndComplete(t *testing.T) {
	layout, tree, g := regularSetup(t)
	rep, _ := buildRep(t, layout, tree, g, DefaultOptions())
	tr := rep.Transform()
	n := layout.N()
	if tr.Columns.Len() != n {
		t.Fatalf("Q has %d columns for %d contacts", tr.Columns.Len(), n)
	}
	for i := 0; i < n; i += 5 {
		vi := tr.ColVector(i)
		for j := 0; j < n; j++ {
			dot := tr.Columns.Dot(j, vi)
			want := 0.0
			if i == j {
				want = 1.0
			}
			if math.Abs(dot-want) > 1e-9 {
				t.Fatalf("QᵀQ(%d,%d) = %g", i, j, dot)
			}
		}
	}
}

// approxColumn returns column j of Q·Gw·Qᵀ.
func approxColumn(tr *Transformed, gw *sparse.Matrix, j int) []float64 {
	x := make([]float64, tr.N())
	x[j] = 1
	return tr.Columns.Apply(gw, x)
}

func TestTransformOperatorAccuracy(t *testing.T) {
	layout, tree, g := regularSetup(t)
	rep, _ := buildRep(t, layout, tree, g, DefaultOptions())
	tr := rep.Transform()
	scale := g.MaxAbs()
	var worst float64
	for j := 0; j < tr.N(); j++ {
		col := approxColumn(tr, tr.Gw, j)
		for i := range col {
			if d := math.Abs(col[i]-g.At(i, j)) / scale; d > worst {
				worst = d
			}
		}
	}
	if worst > 0.03 {
		t.Fatalf("transformed operator error %g", worst)
	}
	if tr.Gw.Sparsity() < 1.2 {
		t.Fatalf("Gw not sparse: factor %g", tr.Gw.Sparsity())
	}
}

func TestGwSymmetric(t *testing.T) {
	layout, tree, g := regularSetup(t)
	rep, _ := buildRep(t, layout, tree, g, DefaultOptions())
	tr := rep.Transform()
	gw := tr.Gw
	for r := 0; r < gw.Rows; r++ {
		for k := gw.RowPtr[r]; k < gw.RowPtr[r+1]; k++ {
			c := gw.ColIdx[k]
			if math.Abs(gw.Val[k]-gw.At(c, r)) > 1e-12 {
				t.Fatalf("Gw not symmetric at (%d,%d)", r, c)
			}
		}
	}
}

func TestAlternatingLayoutAccuracy(t *testing.T) {
	// The headline Chapter 4 claim: the low-rank method stays accurate on
	// mixed-size layouts where the wavelet method degrades.
	layout, tree, g := alternatingSetup(t)
	rep, _ := buildRep(t, layout, tree, g, DefaultOptions())
	tr := rep.Transform()
	scale := g.MaxAbs()
	var worst float64
	for j := 0; j < tr.N(); j++ {
		col := approxColumn(tr, tr.Gw, j)
		for i := range col {
			if d := math.Abs(col[i]-g.At(i, j)) / scale; d > worst {
				worst = d
			}
		}
	}
	if worst > 0.05 {
		t.Fatalf("low-rank error %g on alternating layout", worst)
	}
}

func TestQMatrixAndReorderedGw(t *testing.T) {
	layout, tree, g := regularSetup(t)
	rep, _ := buildRep(t, layout, tree, g, DefaultOptions())
	tr := rep.Transform()
	q := tr.Q()
	if q.Rows != tr.N() || q.Cols != tr.N() {
		t.Fatalf("Q shape %dx%d", q.Rows, q.Cols)
	}
	order := tr.ColumnOrder()
	if len(order) != tr.N() {
		t.Fatalf("column order length %d", len(order))
	}
	perm := tr.Gw.Permute(order)
	if perm.NNZ() != tr.Gw.NNZ() {
		t.Fatalf("reorder changed nnz: %d vs %d", perm.NNZ(), tr.Gw.NNZ())
	}
}

func TestThresholdedAccuracy(t *testing.T) {
	layout, tree, g := regularSetup(t)
	rep, _ := buildRep(t, layout, tree, g, DefaultOptions())
	tr := rep.Transform()
	gwt := tr.Gw.ThresholdForSparsity(6 * tr.Gw.Sparsity())
	if gwt.Sparsity() < 3*tr.Gw.Sparsity() {
		t.Fatalf("thresholding did not sparsify: %g vs %g", gwt.Sparsity(), tr.Gw.Sparsity())
	}
	// Count entries off by more than 10% relative — should stay a small
	// fraction (thesis Table 4.2: ~1%; we allow some slack).
	bad, total := 0, 0
	for j := 0; j < tr.N(); j++ {
		col := approxColumn(tr, gwt, j)
		for i := range col {
			exact := g.At(i, j)
			total++
			if math.Abs(col[i]-exact) > 0.1*math.Abs(exact) {
				bad++
			}
		}
	}
	if frac := float64(bad) / float64(total); frac > 0.15 {
		t.Fatalf("thresholded: %.1f%% of entries off by >10%%", 100*frac)
	}
}

func TestBuildValidation(t *testing.T) {
	layout, tree, _ := regularSetup(t)
	wrong := solver.NewDense(la.Eye(3))
	if _, err := Build(layout, tree, wrong, DefaultOptions()); err == nil {
		t.Fatalf("expected contact count mismatch error")
	}
}
