package sparse

import (
	"math"
	"math/rand"
	"testing"
)

func TestFromTripletsDedup(t *testing.T) {
	m := FromTriplets(3, 3, []Triplet{
		{0, 0, 1}, {0, 0, 2}, {1, 2, -1}, {2, 1, 4}, {2, 1, -4},
	})
	if m.At(0, 0) != 3 {
		t.Fatalf("dedup sum wrong: %g", m.At(0, 0))
	}
	if m.At(1, 2) != -1 {
		t.Fatalf("entry wrong")
	}
	if m.At(2, 1) != 0 || m.NNZ() != 2 {
		t.Fatalf("exact-zero entry not dropped: nnz=%d", m.NNZ())
	}
}

// TestFromTripletsLeavesInputUnmodified is the regression test for the
// in-place-sort side effect: FromTriplets used to sort the caller's slice,
// silently reordering data the caller may still be using (e.g. a triplet
// list shared across several constructions, or one being appended to). The
// input must come back in exactly the order it went in.
func TestFromTripletsLeavesInputUnmodified(t *testing.T) {
	ts := []Triplet{
		{2, 1, 4}, {0, 0, 1}, {1, 2, -1}, {0, 0, 2}, {2, 1, -4},
	}
	orig := append([]Triplet(nil), ts...)
	m := FromTriplets(3, 3, ts)
	for i := range ts {
		if ts[i] != orig[i] {
			t.Fatalf("FromTriplets reordered its input: ts[%d] = %+v, was %+v", i, ts[i], orig[i])
		}
	}
	// Reusing the same slice must build the identical matrix.
	m2 := FromTriplets(3, 3, ts)
	if m.NNZ() != m2.NNZ() || m.At(0, 0) != m2.At(0, 0) || m.At(1, 2) != m2.At(1, 2) {
		t.Fatalf("second construction from the same slice differs")
	}
}

func TestMulVecAndT(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	rows, cols := 7, 5
	dense := make([][]float64, rows)
	var ts []Triplet
	for i := range dense {
		dense[i] = make([]float64, cols)
		for j := range dense[i] {
			if rng.Float64() < 0.4 {
				v := rng.NormFloat64()
				dense[i][j] = v
				ts = append(ts, Triplet{i, j, v})
			}
		}
	}
	m := FromTriplets(rows, cols, ts)
	x := make([]float64, cols)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := m.MulVec(x)
	for i := 0; i < rows; i++ {
		var want float64
		for j := 0; j < cols; j++ {
			want += dense[i][j] * x[j]
		}
		if math.Abs(y[i]-want) > 1e-12 {
			t.Fatalf("MulVec row %d: %g vs %g", i, y[i], want)
		}
	}
}

func TestThreshold(t *testing.T) {
	m := FromTriplets(2, 2, []Triplet{{0, 0, 5}, {0, 1, 0.1}, {1, 0, -0.2}, {1, 1, -3}})
	th := m.Threshold(0.15)
	if th.NNZ() != 3 {
		t.Fatalf("nnz after threshold = %d", th.NNZ())
	}
	if th.At(0, 1) != 0 || th.At(1, 0) != -0.2 {
		t.Fatalf("wrong entries dropped")
	}
}

func TestThresholdForSparsity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 40
	var ts []Triplet
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			ts = append(ts, Triplet{i, j, rng.NormFloat64()})
		}
	}
	m := FromTriplets(n, n, ts)
	target := 8.0
	th := m.ThresholdForSparsity(target)
	if s := th.Sparsity(); math.Abs(s-target)/target > 0.1 {
		t.Fatalf("sparsity %g not close to target %g", s, target)
	}
	// Already sparse enough: unchanged.
	m2 := FromTriplets(n, n, []Triplet{{0, 0, 1}})
	if m2.ThresholdForSparsity(2).NNZ() != 1 {
		t.Fatalf("over-sparse matrix modified")
	}
}

func TestThresholdForSparsityTies(t *testing.T) {
	// Worst case for tie handling: every off-diagonal entry has the same
	// magnitude (symmetric twins included), so the cutoff ties with nearly
	// the whole matrix. A plain magnitude threshold keeps everything and
	// overshoots the target density; the fix must stay within budget.
	n := 16
	var ts []Triplet
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := 1.0
			if i == j {
				v = 10
			}
			ts = append(ts, Triplet{i, j, v})
		}
	}
	m := FromTriplets(n, n, ts)
	target := 4.0
	k := n * n / int(target)
	th := m.ThresholdForSparsity(target)
	if th.NNZ() > k {
		t.Fatalf("ties overshot the budget: nnz = %d, want <= %d", th.NNZ(), k)
	}
	if th.Sparsity() < target {
		t.Fatalf("sparsity %g below target %g", th.Sparsity(), target)
	}
	// Everything strictly above the cutoff survives.
	for i := 0; i < n; i++ {
		if th.At(i, i) != 10 {
			t.Fatalf("diagonal entry (%d,%d) dropped", i, i)
		}
	}
	// Symmetric input stays symmetric: ties are admitted in (i,j)/(j,i)
	// units, never split.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if th.At(i, j) != th.At(j, i) {
				t.Fatalf("symmetry broken at (%d,%d): %g vs %g", i, j, th.At(i, j), th.At(j, i))
			}
		}
	}
	// Deterministic: two calls agree exactly.
	th2 := m.ThresholdForSparsity(target)
	if th.NNZ() != th2.NNZ() {
		t.Fatalf("nondeterministic tie admission: %d vs %d", th.NNZ(), th2.NNZ())
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if th.At(i, j) != th2.At(i, j) {
				t.Fatalf("nondeterministic entry (%d,%d)", i, j)
			}
		}
	}
}

func TestSparsityAndMaxAbs(t *testing.T) {
	m := FromTriplets(4, 4, []Triplet{{0, 0, -7}, {1, 1, 2}})
	if m.Sparsity() != 8 {
		t.Fatalf("Sparsity = %g", m.Sparsity())
	}
	if m.MaxAbs() != 7 {
		t.Fatalf("MaxAbs = %g", m.MaxAbs())
	}
	empty := FromTriplets(2, 2, nil)
	if !math.IsInf(empty.Sparsity(), 1) || empty.MaxAbs() != 0 {
		t.Fatalf("empty matrix stats wrong")
	}
}

// sortedRows checks the CSR invariant At's binary search relies on: column
// indices strictly increasing within every row.
func sortedRows(t *testing.T, what string, m *Matrix) {
	t.Helper()
	for r := 0; r < m.Rows; r++ {
		for k := m.RowPtr[r] + 1; k < m.RowPtr[r+1]; k++ {
			if m.ColIdx[k-1] >= m.ColIdx[k] {
				t.Fatalf("%s: row %d columns out of order: %d then %d",
					what, r, m.ColIdx[k-1], m.ColIdx[k])
			}
		}
	}
}

// TestConstructorsPreserveSortedColumns makes the sorted-row invariant
// explicit: every way a Matrix is built or rebuilt must emit sorted column
// indices, because At binary-searches the row.
func TestConstructorsPreserveSortedColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	n := 24
	var ts []Triplet
	for k := 0; k < 300; k++ {
		// Quantized values force heavy ties in ThresholdForSparsity.
		v := float64(1+rng.Intn(4)) * 0.5
		if rng.Intn(2) == 0 {
			v = -v
		}
		i, j := rng.Intn(n), rng.Intn(n)
		ts = append(ts, Triplet{i, j, v}, Triplet{j, i, v})
	}
	m := FromTriplets(n, n, ts)
	sortedRows(t, "FromTriplets", m)
	sortedRows(t, "Threshold", m.Threshold(1.0))
	sortedRows(t, "ThresholdForSparsity", m.ThresholdForSparsity(4))
	sortedRows(t, "Permute", m.Permute(rng.Perm(n)))
	set := NewSymSet(n)
	for _, tr := range ts {
		set.Put(tr.Row, tr.Col, tr.Val)
	}
	sortedRows(t, "SymSet.Matrix", set.Matrix())

	// At agrees with a linear scan everywhere (stored and unstored entries).
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var want float64
			for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
				if m.ColIdx[k] == j {
					want = m.Val[k]
				}
			}
			if got := m.At(i, j); got != want {
				t.Fatalf("At(%d,%d) = %g, linear scan finds %g", i, j, got, want)
			}
		}
	}
}

// TestMulVecIntoMatchesMulVec pins the in-place kernel bitwise against the
// allocating one, including a dirty output buffer.
func TestMulVecIntoMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	rows, cols := 9, 6
	var ts []Triplet
	for k := 0; k < 25; k++ {
		ts = append(ts, Triplet{rng.Intn(rows), rng.Intn(cols), rng.NormFloat64()})
	}
	m := FromTriplets(rows, cols, ts)
	x := make([]float64, cols)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, rows)
	for i := range y {
		y[i] = 1e300 // dirty
	}
	m.MulVecInto(y, x)
	for i, v := range m.MulVec(x) {
		if y[i] != v {
			t.Fatalf("MulVecInto[%d] = %v, MulVec = %v", i, y[i], v)
		}
	}
}
