package main

import (
	"math"

	"subcouple/internal/geom"
	"subcouple/internal/la"
)

// kernelMatrix is the dense smooth-kernel black box of extract-synth and of
// the served artifacts: G_ij = −a_i·a_j/(1+r_ij) off the diagonal, with the
// diagonal set for strict dominance. It is the formula of the repository's
// SyntheticG, copied here as a workload input so that changes to how the
// repository evaluates its synthetic kernel cannot move this benchmark.
func kernelMatrix(layout *geom.Layout) *la.Dense {
	n := layout.N()
	g := la.NewDense(n, n)
	for i := 0; i < n; i++ {
		ci := layout.Contacts[i]
		for j := i + 1; j < n; j++ {
			cj := layout.Contacts[j]
			r := math.Hypot(ci.CenterX()-cj.CenterX(), ci.CenterY()-cj.CenterY())
			v := -ci.Area() * cj.Area() / (1 + r)
			g.Set(i, j, v)
			g.Set(j, i, v)
		}
	}
	for i := 0; i < n; i++ {
		var off float64
		for j := 0; j < n; j++ {
			if j != i {
				off += math.Abs(g.At(i, j))
			}
		}
		g.Set(i, i, 1.1*off+layout.Contacts[i].Area())
	}
	return g
}
