//go:build amd64 && !amd64.v3

// The constants below are exact bit patterns, so this file builds only where
// the Go compiler never fuses a multiply and an add into one FMA: on amd64
// below GOAMD64=v3. Elsewhere a fused kernel may legitimately round
// differently.

package bem

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"subcouple/internal/geom"
	"subcouple/internal/substrate"
)

// solveBits hashes the exact bits of s's answers to every unit voltage
// vector and to one seeded random vector, in that order.
func solveBits(t *testing.T, s *Solver) uint64 {
	t.Helper()
	n := s.N()
	rng := rand.New(rand.NewSource(31))
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
	return h.Sum64()
}

// TestGoldenSolveBits pins the eigenfunction solver's answers, with plain
// CG and with the §2.3.1 fast-solver preconditioner, against constants: a
// change to the transforms, the operator or the iteration that moves any
// bit of any answer fails here.
func TestGoldenSolveBits(t *testing.T) {
	for _, g := range []struct {
		name    string
		precond bool
		want    uint64
	}{
		{"cg", false, 0x335af61e4b2bb451},
		{"fast-solver-pcg", true, 0x23e793e145cca5d8},
	} {
		t.Run(g.name, func(t *testing.T) {
			prof := substrate.TwoLayer(32, 20, 1, true)
			layout := geom.RegularGrid(32, 32, 4, 4, 4)
			s, err := New(prof, layout, 32)
			if err != nil {
				t.Fatal(err)
			}
			s.UseFastSolverPrecond(g.precond)
			if got := solveBits(t, s); got != g.want {
				t.Errorf("answer hash %#016x, want %#016x", got, g.want)
			}
		})
	}
}
