package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"subcouple/internal/la"
)

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics. xs is not modified; an empty xs gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// newRNG returns the seeded stream for one purpose of a run, so adding a
// draw for one purpose never shifts the inputs of another.
func newRNG(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// Streams of newRNG.
const (
	streamCheckCols = iota + 1
	streamVectors
	streamProbe
)

// stratified picks k of the n columns, one uniformly from each of k equal
// strata, so every part of the layout is checked whatever the seed.
func stratified(rng *rand.Rand, n, k int) []int {
	if k > n {
		k = n
	}
	cols := make([]int, k)
	for i := range cols {
		lo, hi := i*n/k, (i+1)*n/k
		cols[i] = lo + rng.IntN(hi-lo)
	}
	return cols
}

// randomVector draws n values uniformly from [-1, 1).
func randomVector(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 2*rng.Float64() - 1
	}
	return x
}

// checkAnswer accepts got only if it equals, bit for bit, one of wants: the
// answers an in-process engine gives for the same input, one per model
// version that may be serving it.
func checkAnswer(got []float64, wants ...[]float64) error {
	for _, w := range wants {
		if len(got) != len(w) {
			continue
		}
		same := true
		for i := range w {
			if math.Float64bits(got[i]) != math.Float64bits(w[i]) {
				same = false
				break
			}
		}
		if same {
			return nil
		}
	}
	return fmt.Errorf("answer of length %d matches none of the %d expected version(s) bit for bit", len(got), len(wants))
}

// couplingError compares the off-diagonal entries (the couplings) of the
// columns cols of an extracted operator against the exact columns in ref
// (column k of ref is column cols[k] of G). agg is ‖Ĝ−G‖_F/‖G‖_F over all
// those entries; worst is the largest of the same ratio taken per column.
func couplingError(ref *la.Dense, cols []int, column func(j int) []float64) (agg, worst float64) {
	var num, den float64
	for k, j := range cols {
		got := column(j)
		var cn, cd float64
		for i := 0; i < ref.Rows; i++ {
			if i == j {
				continue
			}
			e := ref.At(i, k)
			d := got[i] - e
			cn += d * d
			cd += e * e
		}
		num += cn
		den += cd
		if cd > 0 {
			worst = math.Max(worst, math.Sqrt(cn/cd))
		}
	}
	if den == 0 {
		return 0, worst
	}
	return math.Sqrt(num / den), worst
}
