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

// goldenVoltages returns every unit voltage vector of n contacts and one
// seeded random vector, in that order.
func goldenVoltages(n int) [][]float64 {
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
	return append(vs, v)
}

// hashAnswers hashes the exact bits of answers, in order.
func hashAnswers(outs [][]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, out := range outs {
		for _, x := range out {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// solveBits hashes s's answers to goldenVoltages, one Solve call each.
func solveBits(t *testing.T, s *Solver) uint64 {
	t.Helper()
	vs := goldenVoltages(s.N())
	outs := make([][]float64, len(vs))
	for i, v := range vs {
		out, err := s.Solve(v)
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = out
	}
	return hashAnswers(outs)
}

// batchBits hashes s's answers to goldenVoltages, all in one SolveBatch
// call on the given number of workers.
func batchBits(t *testing.T, s *Solver, workers int) uint64 {
	t.Helper()
	s.SetWorkers(workers)
	outs, err := s.SolveBatch(goldenVoltages(s.N()))
	if err != nil {
		t.Fatal(err)
	}
	return hashAnswers(outs)
}

// TestGoldenSolveBits pins the eigenfunction solver's answers, under each
// preconditioner, against constants,
// through Solve and through SolveBatch: a change to the transforms, the
// operator, the iteration or the batch path that moves any bit of any
// answer fails here.
func TestGoldenSolveBits(t *testing.T) {
	for _, g := range []struct {
		name    string
		precond Precond
		want    uint64
	}{
		{"cg", PrecondNone, 0x605307acc851ab2c},
		{"fast-solver-pcg", PrecondFastSolver, 0x2cb02e2e91bf800c},
		{"block-jacobi", PrecondBlockJacobi, 0x6341896bdf4cee27},
	} {
		t.Run(g.name, func(t *testing.T) {
			prof := substrate.TwoLayer(32, 20, 1, true)
			layout := geom.RegularGrid(32, 32, 4, 4, 4)
			s, err := New(prof, layout, 32)
			if err != nil {
				t.Fatal(err)
			}
			s.Precond = g.precond
			if got := solveBits(t, s); got != g.want {
				t.Errorf("answer hash %#016x, want %#016x", got, g.want)
			}
			// The same vectors through SolveBatch: one worker reuses its
			// buffers across every solve, three interleave them.
			for _, w := range []int{1, 3} {
				if got := batchBits(t, s, w); got != g.want {
					t.Errorf("SolveBatch on %d workers: answer hash %#016x, want %#016x", w, got, g.want)
				}
			}
		})
	}
}
