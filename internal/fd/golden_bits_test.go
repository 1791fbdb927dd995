//go:build amd64 && !amd64.v3

// The constants below are exact bit patterns, so this file builds only where
// the Go compiler never fuses a multiply and an add into one FMA: on amd64
// below GOAMD64=v3. Elsewhere a fused kernel may legitimately round
// differently.

package fd

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"subcouple/internal/geom"
	"subcouple/internal/substrate"
)

// TestGoldenFastPoissonBits pins the answers of fast-Poisson-preconditioned
// solves against constants, on a power-of-two grid (the FFT-based
// transforms) and on a 12×20 grid (the direct cosine-sum transforms). Every
// unit voltage vector and one seeded random vector are solved and the exact
// bits of the answers hashed in order.
func TestGoldenFastPoissonBits(t *testing.T) {
	for _, g := range []struct {
		name   string
		prof   *substrate.Profile
		layout *geom.Layout
		opt    Options
		want   uint64
	}{
		{"16x16", substrate.TwoLayer(16, 8, 1, false), geom.RegularGrid(16, 16, 4, 4, 2),
			Options{H: 1, Placement: Outside, Precond: PrecondFastPoisson, AreaWeighted: true, Tol: 1e-9}, 0x1dd229c6fd5de878},
		{"12x20", &substrate.Profile{A: 12, B: 20, Grounded: true, Layers: []substrate.Layer{{Thickness: 6, Sigma: 1}}},
			geom.RegularGrid(12, 20, 3, 5, 2),
			Options{H: 1, Placement: Inside, Precond: PrecondFastPoisson, TopBlend: 0.5, Tol: 1e-9}, 0x04660587c02c7be4},
	} {
		t.Run(g.name, func(t *testing.T) {
			s := mustNew(t, g.prof, g.layout, g.opt)
			n := s.N()
			rng := rand.New(rand.NewSource(32))
			vs := make([][]float64, 0, n+1)
			for j := 0; j < n; j++ {
				e := make([]float64, n)
				e[j] = 1
				vs = append(vs, e)
			}
			v := make([]float64, n)
			for i := range v {
				v[i] = rng.NormFloat64()
			}
			vs = append(vs, v)
			h := fnv.New64a()
			var b [8]byte
			for _, v := range vs {
				out, err := s.Solve(v)
				if err != nil {
					t.Fatal(err)
				}
				for _, x := range out {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
					h.Write(b[:])
				}
			}
			if got := h.Sum64(); got != g.want {
				t.Errorf("answer hash %#016x, want %#016x", got, g.want)
			}
		})
	}
}
