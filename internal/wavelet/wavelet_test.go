package wavelet

import (
	"math"
	"testing"

	"subcouple/internal/bem"
	"subcouple/internal/geom"
	"subcouple/internal/la"
	"subcouple/internal/moments"
	"subcouple/internal/quadtree"
	"subcouple/internal/solver"
	"subcouple/internal/sparse"
	"subcouple/internal/substrate"
)

func regularBasis(t *testing.T, p int) (*Basis, *geom.Layout) {
	t.Helper()
	layout := geom.RegularGrid(64, 64, 8, 8, 4)
	tree, err := quadtree.Build(layout, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBasis(layout, tree, p)
	if err != nil {
		t.Fatal(err)
	}
	return b, layout
}

// extractBasis builds the 256-contact regular example used by the
// extraction tests: deep enough (maxLevel 4) that combine-solves engages.
func extractBasis(t *testing.T) (*Basis, *geom.Layout) {
	t.Helper()
	layout := geom.RegularGrid(64, 64, 16, 16, 2)
	tree, err := quadtree.Build(layout, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBasis(layout, tree, 2)
	if err != nil {
		t.Fatal(err)
	}
	return b, layout
}

var gCache = map[string]*la.Dense{}

// exactG extracts the dense G for a small layout with the eigenfunction
// solver, memoized across tests. It solves to a relative residual of 1e-12,
// well below the solver's default 1e-9, so that G is exact to the 1e-9 of
// max|G| that the tests compare at: at 1e-9, G's error and asymmetry are
// about 2e-10 of max|G|, under any preconditioner.
func exactG(t *testing.T, layout *geom.Layout) *la.Dense {
	t.Helper()
	key := layout.Name
	if g, ok := gCache[key]; ok {
		return g
	}
	prof := substrate.TwoLayer(layout.A, 20, 1, true)
	s, err := bem.New(prof, layout, 64)
	if err != nil {
		t.Fatal(err)
	}
	s.Tol = 1e-12
	g, err := solver.ExtractDense(s)
	if err != nil {
		t.Fatal(err)
	}
	gCache[key] = g
	return g
}

func TestBasisOrthogonal(t *testing.T) {
	for _, p := range []int{0, 1, 2} {
		b, _ := regularBasis(t, p)
		n := b.N()
		if n != 64 {
			t.Fatalf("p=%d: N=%d", p, n)
		}
		// QᵀQ = I.
		for i := 0; i < n; i++ {
			vi := b.ColVector(i)
			for j := i; j < n; j++ {
				dot := b.Columns.Dot(j, vi)
				want := 0.0
				if i == j {
					want = 1.0
				}
				if math.Abs(dot-want) > 1e-10 {
					t.Fatalf("p=%d: QᵀQ(%d,%d) = %g", p, i, j, dot)
				}
			}
		}
	}
}

func TestBasisOrthogonalIrregular(t *testing.T) {
	layout := geom.IrregularSameSize(64, 64, 16, 16, 2, 0.5, 3)
	tree, err := quadtree.Build(layout, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBasis(layout, tree, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := b.N()
	for i := 0; i < n; i += 7 {
		vi := b.ColVector(i)
		for j := 0; j < n; j++ {
			dot := b.Columns.Dot(j, vi)
			want := 0.0
			if i == j {
				want = 1.0
			}
			if math.Abs(dot-want) > 1e-10 {
				t.Fatalf("QᵀQ(%d,%d) = %g", i, j, dot)
			}
		}
	}
}

func TestWColumnsHaveVanishingMoments(t *testing.T) {
	p := 2
	b, layout := regularBasis(t, p)
	for idx, info := range b.Cols {
		if info.Kind != ColW {
			continue
		}
		s := info.Square
		cx, cy := b.Tree.Center(s)
		// Restrict the column to the square's contacts and take moments.
		v := make([]float64, len(s.Contacts))
		full := b.ColVector(idx)
		for r, ci := range s.Contacts {
			v[r] = full[ci]
		}
		mom := moments.OfVector(layout, s.Contacts, v, cx, cy, p, b.Tree.SideAt(s.Level))
		for k, m := range mom {
			if math.Abs(m) > 1e-8 {
				t.Fatalf("column %d (level %d) moment %d = %g, want 0", idx, info.Level, k, m)
			}
		}
		// Support confined to the square.
		for ci, x := range full {
			if x != 0 {
				in := false
				for _, sc := range s.Contacts {
					if sc == ci {
						in = true
					}
				}
				if !in {
					t.Fatalf("column %d has support outside its square", idx)
				}
			}
		}
	}
}

func TestHaarStructureP0(t *testing.T) {
	// p=0 on a 2x2-contacts-per-finest-square grid reproduces the Haar
	// picture of Figs 3-1..3-4: 3 balanced W vectors and 1 constant V per
	// square.
	layout := geom.RegularGrid(32, 32, 8, 8, 2)
	tree, err := quadtree.Build(layout, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBasis(layout, tree, 0)
	if err != nil {
		t.Fatal(err)
	}
	nW := 0
	for _, s := range tree.SquaresAt(2) {
		cols := b.wCols[2][s.ID]
		if len(cols) != 3 {
			t.Fatalf("finest square has %d W columns, want 3", len(cols))
		}
		nW += len(cols)
		for _, c := range cols {
			v := b.ColVector(c)
			var sum float64
			for _, x := range v {
				sum += x // equal-size contacts: zero mean = balanced voltage
			}
			if math.Abs(sum) > 1e-10 {
				t.Fatalf("W column %d not balanced: sum %g", c, sum)
			}
		}
	}
	if len(b.rootV) != 1 {
		t.Fatalf("root V block has %d columns, want 1 for p=0", len(b.rootV))
	}
	// All-ones root vector.
	rv := b.ColVector(b.rootV[0])
	for i := 1; i < len(rv); i++ {
		if math.Abs(rv[i]-rv[0]) > 1e-10 {
			t.Fatalf("root V not constant")
		}
	}
	if nW+len(b.rootV)+3+3*4 != b.N() {
		t.Fatalf("column count bookkeeping off: %d W + %d V of %d", nW, len(b.rootV), b.N())
	}
}

func TestQMatrixMatchesColumns(t *testing.T) {
	b, _ := regularBasis(t, 2)
	q := b.Q()
	if q.Rows != b.N() || q.Cols != b.N() {
		t.Fatalf("Q shape %dx%d", q.Rows, q.Cols)
	}
	order := b.ColumnOrder()
	for newIdx, oldIdx := range order {
		v := b.ColVector(oldIdx)
		for r := 0; r < b.N(); r++ {
			if math.Abs(q.At(r, newIdx)-v[r]) > 1e-14 {
				t.Fatalf("Q column %d mismatch at row %d", newIdx, r)
			}
		}
	}
}

func TestExtractDirectMatchesFullGwOnKeptEntries(t *testing.T) {
	b, layout := extractBasis(t)
	g := exactG(t, layout)
	ds := solver.NewDense(g)
	gws, err := b.ExtractDirect(ds)
	if err != nil {
		t.Fatal(err)
	}
	full := b.FullGw(g)
	scale := full.MaxAbs()
	// Every stored entry equals the exact transform entry.
	for r := 0; r < gws.Rows; r++ {
		for k := gws.RowPtr[r]; k < gws.RowPtr[r+1]; k++ {
			c := gws.ColIdx[k]
			if math.Abs(gws.Val[k]-full.At(r, c)) > 1e-9*scale {
				t.Fatalf("kept entry (%d,%d) = %g, exact %g", r, c, gws.Val[k], full.At(r, c))
			}
		}
	}
	// The kept-pattern sparsity factor grows with n (O(n log n) nonzeros);
	// at n=256 it is modest.
	if gws.Sparsity() < 1.25 {
		t.Fatalf("locality pattern kept too much: sparsity %g", gws.Sparsity())
	}
}

func TestCombineSolvesMatchesDirect(t *testing.T) {
	b, layout := extractBasis(t)
	g := exactG(t, layout)
	direct, err := b.ExtractDirect(solver.NewDense(g))
	if err != nil {
		t.Fatal(err)
	}
	counting := solver.NewCounting(solver.NewDense(g))
	combined, err := b.ExtractCombined(counting)
	if err != nil {
		t.Fatal(err)
	}
	if counting.Solves >= 8*b.N()/10 {
		t.Fatalf("combine-solves used %d solves for n=%d", counting.Solves, b.N())
	}
	if combined.NNZ() != direct.NNZ() {
		t.Fatalf("entry patterns differ: %d vs %d", combined.NNZ(), direct.NNZ())
	}
	scale := direct.MaxAbs()
	var maxDiff float64
	for r := 0; r < combined.Rows; r++ {
		for k := combined.RowPtr[r]; k < combined.RowPtr[r+1]; k++ {
			d := math.Abs(combined.Val[k] - direct.At(r, combined.ColIdx[k]))
			if d > maxDiff {
				maxDiff = d
			}
		}
	}
	if maxDiff > 0.02*scale {
		t.Fatalf("combine-solves entries deviate by %g (scale %g)", maxDiff, scale)
	}
}

func TestSparsifiedOperatorAccuracy(t *testing.T) {
	b, layout := extractBasis(t)
	g := exactG(t, layout)
	gws, err := b.ExtractCombined(solver.NewDense(g))
	if err != nil {
		t.Fatal(err)
	}
	// Q·Gws·Qᵀ must reproduce G to a few percent entrywise relative to the
	// largest entry, on this friendly regular layout.
	scale := g.MaxAbs()
	var worst float64
	for j := 0; j < b.N(); j++ {
		col := approxColumn(b, gws, j)
		for i := range col {
			if d := math.Abs(col[i]-g.At(i, j)) / scale; d > worst {
				worst = d
			}
		}
	}
	if worst > 0.02 {
		t.Fatalf("sparsified operator error %g too large", worst)
	}
}

// approxColumn returns column j of Q·Gw·Qᵀ.
func approxColumn(b *Basis, gw *sparse.Matrix, j int) []float64 {
	x := make([]float64, b.N())
	x[j] = 1
	return b.Columns.Apply(gw, x)
}

func TestApplyMatchesApproxColumn(t *testing.T) {
	b, layout := regularBasis(t, 2)
	g := exactG(t, layout)
	gws, err := b.ExtractDirect(solver.NewDense(g))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, b.N())
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	y := b.Columns.Apply(gws, x)
	// Compare against summing columns.
	want := make([]float64, b.N())
	for j, xj := range x {
		col := approxColumn(b, gws, j)
		for i := range want {
			want[i] += xj * col[i]
		}
	}
	for i := range y {
		if math.Abs(y[i]-want[i]) > 1e-9 {
			t.Fatalf("Apply mismatch at %d", i)
		}
	}
}

func TestBasisRejectsNegativeOrder(t *testing.T) {
	layout := geom.RegularGrid(16, 16, 4, 4, 2)
	tree, err := quadtree.Build(layout, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBasis(layout, tree, -1); err == nil {
		t.Fatalf("expected error for p < 0")
	}
}
