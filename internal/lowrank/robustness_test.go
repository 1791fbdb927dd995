package lowrank_test

import (
	"math"
	"testing"

	"subcouple/internal/core"
	"subcouple/internal/experiments"
	"subcouple/internal/geom"
	"subcouple/internal/la"
	"subcouple/internal/lowrank"
	"subcouple/internal/quadtree"
	"subcouple/internal/solver"
)

// These robustness tests drive the low-rank method over layouts with empty
// squares, widely varying per-square contact counts, and mixed contact
// shapes — the failure modes the thesis flags for "very irregular contact
// layouts" — using the fast synthetic kernel.

func buildAndCheck(t *testing.T, layout *geom.Layout, maxLevel int, maxErr float64) {
	t.Helper()
	tree, err := quadtree.Build(layout, maxLevel)
	if err != nil {
		t.Fatal(err)
	}
	g := experiments.SyntheticG(layout)
	rep, err := lowrank.Build(layout, tree, solver.NewDense(g), lowrank.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tr := rep.Transform()
	if tr.Columns.Len() != layout.N() {
		t.Fatalf("Q has %d columns for %d contacts", tr.Columns.Len(), layout.N())
	}
	// Spot-check orthogonality.
	n := layout.N()
	for i := 0; i < n; i += 1 + n/40 {
		vi := tr.ColVector(i)
		var selfDot float64
		for k, v := range vi {
			_ = k
			selfDot += v * v
		}
		if math.Abs(selfDot-1) > 1e-9 {
			t.Fatalf("column %d not unit: %g", i, selfDot)
		}
	}
	// Operator accuracy (scale-relative) via random vectors.
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(3*i + 1))
	}
	want := g.MulVec(x)
	got := tr.Columns.Apply(tr.Gw, x)
	diff := make([]float64, n)
	for i := range diff {
		diff[i] = got[i] - want[i]
	}
	if rel := la.Norm2(diff) / la.Norm2(want); rel > maxErr {
		t.Fatalf("operator error %g on %s", rel, layout.Name)
	}
}

func TestSparseIrregularLayoutWithEmptySquares(t *testing.T) {
	// 30% occupancy: most finest-level squares (and some coarse ones) are
	// empty.
	layout := geom.IrregularSameSize(64, 64, 16, 16, 2, 0.3, 11)
	buildAndCheck(t, layout, 4, 0.02)
}

func TestVerySparseLayout(t *testing.T) {
	// 10% occupancy: interactive regions of many squares have few or no
	// contacts, exercising the degenerate-rank paths.
	layout := geom.IrregularSameSize(64, 64, 16, 16, 2, 0.1, 13)
	if layout.N() < 10 {
		t.Skip("layout degenerated")
	}
	buildAndCheck(t, layout, 4, 0.05)
}

func TestMixedShapesLayout(t *testing.T) {
	// Small squares, long thin contacts, and rings, split at quadtree
	// boundaries (Fig 4-8) — widely varying contact counts per square.
	raw := geom.MixedShapes(128)
	layout, maxLevel := core.Prepare(raw, 4)
	buildAndCheck(t, layout, maxLevel, 0.03)
}

func TestClusteredLayout(t *testing.T) {
	// Two dense clusters far apart: coarse squares in between are empty.
	layout := &geom.Layout{A: 64, B: 64, Name: "clusters"}
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			x0, y0 := 2+float64(i)*3, 2+float64(j)*3
			layout.Contacts = append(layout.Contacts,
				geom.Contact{Rect: geom.Rect{X0: x0, Y0: y0, X1: x0 + 1, Y1: y0 + 1}, Group: len(layout.Contacts)})
			x1, y1 := 44+float64(i)*3, 44+float64(j)*3
			layout.Contacts = append(layout.Contacts,
				geom.Contact{Rect: geom.Rect{X0: x1, Y0: y1, X1: x1 + 1, Y1: y1 + 1}, Group: len(layout.Contacts)})
		}
	}
	if err := layout.Validate(); err != nil {
		t.Fatal(err)
	}
	buildAndCheck(t, layout, 4, 0.05)
}
