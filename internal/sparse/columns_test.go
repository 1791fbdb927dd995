package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// randomColumns returns an n-column Columns with a few entries per column
// (zeros among the appended values) and the same matrix as a dense n×n
// array.
func randomColumns(rng *rand.Rand, n int) (*Columns, [][]float64) {
	c := &Columns{}
	dense := make([][]float64, n)
	for i := range dense {
		dense[i] = make([]float64, n)
	}
	for j := 0; j < n; j++ {
		rows := rng.Perm(n)[:rng.Intn(n)+1]
		vals := make([]float64, len(rows))
		for k, r := range rows {
			if rng.Intn(4) != 0 {
				vals[k] = rng.NormFloat64()
			}
			dense[r][j] = vals[k]
		}
		c.Append(rows, vals)
	}
	return c, dense
}

func TestColumnsAppendDropsZeros(t *testing.T) {
	c := &Columns{}
	c.Append([]int{0, 1, 2, 3}, []float64{0, 2, math.Copysign(0, -1), -3})
	c.Append(nil, nil)
	c.Append([]int{1}, []float64{5})
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	wantPtr := []int{0, 2, 2, 3}
	for i, p := range wantPtr {
		if c.ColPtr[i] != p {
			t.Fatalf("ColPtr = %v, want %v", c.ColPtr, wantPtr)
		}
	}
	if c.RowIdx[0] != 1 || c.RowIdx[1] != 3 || c.Val[0] != 2 || c.Val[1] != -3 {
		t.Fatalf("column 0 holds rows %v values %v", c.RowIdx[:2], c.Val[:2])
	}
	if (&Columns{}).Len() != 0 {
		t.Fatalf("zero Columns has nonzero Len")
	}
}

// TestColumnsMatchDenseProducts checks every product against the same
// matrix held densely.
func TestColumnsMatchDenseProducts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 9
	c, q := randomColumns(rng, n)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	near := func(what string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
			t.Fatalf("%s = %g, want %g", what, got, want)
		}
	}
	for j := 0; j < n; j++ {
		var dot float64
		for i := 0; i < n; i++ {
			dot += q[i][j] * x[i]
		}
		near("Dot", c.Dot(j, x), dot)
		y := append([]float64(nil), x...)
		c.AddTo(j, -2, y)
		v := c.Vector(j, n)
		for i := 0; i < n; i++ {
			near("AddTo", y[i], x[i]-2*q[i][j])
			near("Vector", v[i], q[i][j])
		}
	}

	order := rng.Perm(n)
	m := c.Matrix(n, order)
	if m.Rows != n || m.Cols != n {
		t.Fatalf("Matrix shape %dx%d", m.Rows, m.Cols)
	}
	for i := 0; i < n; i++ {
		for k, j := range order {
			if m.At(i, k) != q[i][j] {
				t.Fatalf("Matrix(%d,%d) = %g, want column %d's %g", i, k, m.At(i, k), j, q[i][j])
			}
		}
	}

	// Apply = Q·gw·Qᵀ·x with a random symmetric gw.
	set := NewSymSet(n)
	for p := 0; p < 3*n; p++ {
		set.Put(rng.Intn(n), rng.Intn(n), rng.NormFloat64())
	}
	gw := set.Matrix()
	u := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			u[j] += q[i][j] * x[i]
		}
	}
	w := gw.MulVec(u)
	got := c.Apply(gw, x)
	for i := 0; i < n; i++ {
		var want float64
		for j := 0; j < n; j++ {
			want += q[i][j] * w[j]
		}
		near("Apply", got[i], want)
	}
}

func TestPermuteInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 11
	var ts []Triplet
	for k := 0; k < 40; k++ {
		ts = append(ts, Triplet{rng.Intn(n), rng.Intn(n), rng.NormFloat64()})
	}
	m := FromTriplets(n, n, ts)
	order := rng.Perm(n)
	inv := make([]int, n)
	for a, o := range order {
		inv[o] = a
	}
	p := m.Permute(order)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if p.At(a, b) != m.At(order[a], order[b]) {
				t.Fatalf("Permute(%d,%d) = %g, want %g", a, b, p.At(a, b), m.At(order[a], order[b]))
			}
		}
	}
	sameBits(t, "Permute then inverse", p.Permute(inv), m)
}
