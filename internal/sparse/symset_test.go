package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// refSet is the assembler SymSet replaced, kept as its reference: a map
// with set semantics over both triangles, flattened to triplets and built
// by FromTriplets.
type refSet struct {
	n int
	m map[int64]float64
}

func (e *refSet) put(i, j int, v float64) {
	e.m[int64(i)*int64(e.n)+int64(j)] = v
	e.m[int64(j)*int64(e.n)+int64(i)] = v
}

func (e *refSet) matrix() *Matrix {
	ts := make([]Triplet, 0, len(e.m))
	for k, v := range e.m {
		ts = append(ts, Triplet{Row: int(k / int64(e.n)), Col: int(k % int64(e.n)), Val: v})
	}
	return FromTriplets(e.n, e.n, ts)
}

// sameBits fails unless a and b have equal shapes, index arrays and value
// bits.
func sameBits(t *testing.T, what string, a, b *Matrix) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols || len(a.RowPtr) != len(b.RowPtr) ||
		len(a.ColIdx) != len(b.ColIdx) || len(a.Val) != len(b.Val) {
		t.Fatalf("%s: shape %dx%d nnz %d, want %dx%d nnz %d",
			what, a.Rows, a.Cols, len(a.Val), b.Rows, b.Cols, len(b.Val))
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			t.Fatalf("%s: RowPtr[%d] = %d, want %d", what, i, a.RowPtr[i], b.RowPtr[i])
		}
	}
	for k := range a.ColIdx {
		if a.ColIdx[k] != b.ColIdx[k] {
			t.Fatalf("%s: ColIdx[%d] = %d, want %d", what, k, a.ColIdx[k], b.ColIdx[k])
		}
		if math.Float64bits(a.Val[k]) != math.Float64bits(b.Val[k]) {
			t.Fatalf("%s: Val[%d] = %v, want %v", what, k, a.Val[k], b.Val[k])
		}
	}
}

// TestSymSetMatchesMapAssembly drives SymSet and the map reference with the
// same random put sequences: small index ranges so puts overwrite through
// both (i,j) and (j,i), diagonal puts, and 0, −0 and NaN among the values.
// The two must agree bit for bit, also when Matrix is called mid-sequence
// and the puts go on.
func TestSymSetMatchesMapAssembly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	special := []float64{0, math.Copysign(0, -1), math.NaN(), 1, -1}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		set := NewSymSet(n)
		ref := &refSet{n: n, m: map[int64]float64{}}
		puts := rng.Intn(4 * n * n)
		for p := 0; p < puts; p++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if rng.Intn(8) == 0 {
				j = i
			}
			v := rng.NormFloat64()
			if rng.Intn(4) == 0 {
				v = special[rng.Intn(len(special))]
			}
			set.Put(i, j, v)
			ref.put(i, j, v)
			if p == puts/2 {
				sameBits(t, "mid-sequence", set.Matrix(), ref.matrix())
			}
		}
		sameBits(t, "final", set.Matrix(), ref.matrix())
	}
}

func TestSymSetEmpty(t *testing.T) {
	m := NewSymSet(3).Matrix()
	if m.Rows != 3 || m.Cols != 3 || m.NNZ() != 0 || len(m.RowPtr) != 4 {
		t.Fatalf("empty assembly: %dx%d nnz %d", m.Rows, m.Cols, m.NNZ())
	}
}
