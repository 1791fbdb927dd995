package sparse

import (
	"math/rand"
	"testing"
)

// randMatrix builds a reproducible random sparse matrix with roughly
// density·rows·cols nonzeros, including some exact-zero-summing duplicates
// so the CSR has realistic structure.
func randMatrix(t *testing.T, rng *rand.Rand, rows, cols int, density float64) *Matrix {
	t.Helper()
	var ts []Triplet
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Float64() < density {
				ts = append(ts, Triplet{r, c, rng.NormFloat64()})
			}
		}
	}
	return FromTriplets(rows, cols, ts)
}

func randPanel(rng *rand.Rand, n, k int) []float64 {
	p := make([]float64, n*k)
	for i := range p {
		p[i] = rng.NormFloat64()
		if rng.Intn(5) == 0 {
			p[i] = 0
		}
	}
	return p
}

// TestMulPanelMatchesPerColumn is the panel kernel's bitwise contract: every
// column of MulPanelInto equals the single-RHS kernel run on that column,
// bit for bit, for rectangular shapes and several widths.
func TestMulPanelMatchesPerColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []struct{ rows, cols int }{{1, 1}, {5, 3}, {17, 17}, {40, 23}, {23, 40}}
	for _, sh := range shapes {
		m := randMatrix(t, rng, sh.rows, sh.cols, 0.3)
		for _, k := range []int{1, 2, 7, 16} {
			x := randPanel(rng, sh.cols, k)
			y := make([]float64, sh.rows*k)
			m.MulPanelInto(y, x, k)
			for c := 0; c < k; c++ {
				want := make([]float64, sh.rows)
				m.MulVecInto(want, x[c*sh.cols:(c+1)*sh.cols])
				for i := range want {
					if y[c*sh.rows+i] != want[i] {
						t.Fatalf("%dx%d k=%d: MulPanelInto col %d row %d = %v, MulVecInto %v (not bitwise identical)",
							sh.rows, sh.cols, k, c, i, y[c*sh.rows+i], want[i])
					}
				}
			}
		}
	}
}

// TestMulPanelValidates pins the panel kernel's error behavior: mis-sized
// panels, non-positive widths, and aliased outputs panic with clear messages.
func TestMulPanelValidates(t *testing.T) {
	m := FromTriplets(3, 2, []Triplet{{0, 0, 1}, {2, 1, -2}})
	x := make([]float64, 2*2)
	y := make([]float64, 3*2)
	cases := []struct {
		name string
		f    func()
	}{
		{"short x", func() { m.MulPanelInto(y, x[:3], 2) }},
		{"short y", func() { m.MulPanelInto(y[:5], x, 2) }},
		{"zero k", func() { m.MulPanelInto(y[:0], x[:0], 0) }},
		{"alias", func() {
			sq := FromTriplets(2, 2, []Triplet{{0, 1, 1}})
			p := make([]float64, 4)
			_ = sq
			sq.MulPanelInto(p, p, 2)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			tc.f()
		})
	}
}

func BenchmarkMulPanel16(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	var ts []Triplet
	const n = 256
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if rng.Float64() < 0.25 {
				ts = append(ts, Triplet{r, c, rng.NormFloat64()})
			}
		}
	}
	m := FromTriplets(n, n, ts)
	const k = 16
	x := randPanel(rng, n, k)
	y := make([]float64, n*k)
	b.Run("panel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.MulPanelInto(y, x, k)
		}
	})
	b.Run("per-column", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for c := 0; c < k; c++ {
				m.MulVecInto(y[c*n:(c+1)*n], x[c*n:(c+1)*n])
			}
		}
	})
}
