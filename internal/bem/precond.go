package bem

import (
	"fmt"
	"math"

	"subcouple/internal/dct"
	"subcouple/internal/la"
)

// Precond selects the preconditioner of the solver's PCG iteration.
type Precond int

const (
	// PrecondBlockJacobi (the default) solves each contact's own block of
	// A_cc exactly: the operator restricted to that contact's panels,
	// Cholesky-factored once per solver.
	PrecondBlockJacobi Precond = iota
	// PrecondNone runs plain CG.
	PrecondNone
	// PrecondFastSolver is the §2.3.1 fast-solver preconditioner, a
	// reproduced negative result (see applyFastSolver).
	PrecondFastSolver
)

// ensurePrecond builds the configured preconditioner exactly once, on the
// first solve, timed as phase "bem/precond_setup". SolveBatch's concurrent
// solves share the one build.
func (s *Solver) ensurePrecond() error {
	s.initOnce.Do(func() {
		stop := s.ms.Phase("bem/precond_setup")
		defer stop()
		switch s.Precond {
		case PrecondBlockJacobi:
			s.initErr = s.buildBlocks()
		case PrecondFastSolver:
			s.invLam = make([]float64, len(s.lam))
			for i, l := range s.lam {
				if l > 0 {
					s.invLam[i] = 1 / l
				}
			}
		}
	})
	return s.initErr
}

// precondition sets ws.z = M⁻¹·ws.r. Under PrecondNone z aliases r, so
// there is nothing to do.
func (s *Solver) precondition(ws *workspace) {
	switch s.Precond {
	case PrecondBlockJacobi:
		s.blockSolve(ws.r, ws.z)
	case PrecondFastSolver:
		s.applyFastSolver(ws.plan, ws.r, ws.z, ws.field)
	}
}

// Block-Jacobi. The operator's entry between panels p = (i_p, j_p) and
// q = (i_q, j_q) is, with DCT-III's weights w_0 = ½ and w_m = 1 otherwise,
//
//	A(p,q) = Σ_mn w_m w_n λ_mn cos_m(i_p) cos_m(i_q) cos_n(j_p) cos_n(j_q),
//
// where cos_m(i) = cos(πm(2i+1)/2N). Each product of two cosines is half
// the sum of cos(πm·|Δi|/N) and cos(πm·Σi/N), with Δi = i_p − i_q and
// Σi = i_p + i_q + 1, so every entry reads four values of one table:
//
//	K(u,v) = Σ_mn w_m w_n λ_mn cos(πmu/N) cos(πnv/N),  u, v ∈ [0, 2N),
//	A(p,q) = ¼[K(|Δi|,|Δj|) + K(|Δi|,Σj) + K(Σi,|Δj|) + K(Σi,Σj)].

// buildBlocks factors every contact's block of A_cc from the K table and
// keeps the packed factors. A block that is not positive definite is an
// error naming the contact.
func (s *Solver) buildBlocks() error {
	k := s.kTable()
	s.chol = make([][]float64, len(s.Pan.ContactPanels))
	for c, ps := range s.Pan.ContactPanels {
		l := la.Cholesky(s.block(k, ps))
		if l == nil {
			return fmt.Errorf("bem: block-Jacobi block of contact %d (%d panels) is not positive definite", c, len(ps))
		}
		packed := make([]float64, 0, len(ps)*(len(ps)+1)/2)
		for x := range ps {
			packed = append(packed, l.Data[x*l.Cols:x*l.Cols+x+1]...)
		}
		s.chol[c] = packed
	}
	return nil
}

// block returns A restricted to the panels ps, read from the K table k.
func (s *Solver) block(k []float64, ps []int) *la.Dense {
	n2 := 2 * s.np
	a := la.NewDense(len(ps), len(ps))
	for x, p := range ps {
		ip, jp := p/s.np, p%s.np
		for y, q := range ps {
			iq, jq := q/s.np, q%s.np
			di, si := abs(ip-iq), ip+iq+1
			dj, sj := abs(jp-jq), jp+jq+1
			a.Set(x, y, 0.25*(k[di*n2+dj]+k[di*n2+sj]+k[si*n2+dj]+k[si*n2+sj]))
		}
	}
	return a
}

// kTable returns K(u,v) over u, v ∈ [0, 2N), row-major, through two
// separable cosine passes: T(m,v) = Σ_n w_n λ_mn cos(πnv/N), then
// K(u,v) = Σ_m w_m cos(πmu/N) T(m,v).
func (s *Solver) kTable() []float64 {
	n, n2 := s.np, 2*s.np
	// cs[m*n2+u] = w_m·cos(πmu/N).
	cs := make([]float64, n*n2)
	for m := 0; m < n; m++ {
		w := 1.0
		if m == 0 {
			w = 0.5
		}
		for u := 0; u < n2; u++ {
			cs[m*n2+u] = w * math.Cos(math.Pi*float64(m*u%n2)/float64(n))
		}
	}
	t := make([]float64, n*n2)
	for m := 0; m < n; m++ {
		tm := t[m*n2 : (m+1)*n2]
		for nn, l := range s.lam[m*n : (m+1)*n] {
			la.Axpy(l, cs[nn*n2:(nn+1)*n2], tm)
		}
	}
	k := make([]float64, n2*n2)
	for u := 0; u < n2; u++ {
		ku := k[u*n2 : (u+1)*n2]
		for m := 0; m < n; m++ {
			la.Axpy(cs[m*n2+u], t[m*n2:(m+1)*n2], ku)
		}
	}
	return k
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// blockSolve sets z = M⁻¹·r for block-Jacobi: per contact, a forward and a
// back substitution through the packed factor L (row x of L holds
// L[x][0..x]), solving L·Lᵀ·z_c = r_c.
func (s *Solver) blockSolve(r, z []float64) {
	off := 0
	for c, l := range s.chol {
		k := len(s.Pan.ContactPanels[c])
		rc, zc := r[off:off+k], z[off:off+k]
		for x := 0; x < k; x++ {
			row := l[x*(x+1)/2:]
			v := rc[x]
			for y := 0; y < x; y++ {
				v -= row[y] * zc[y]
			}
			zc[x] = v / row[x]
		}
		for x := k - 1; x >= 0; x-- {
			v := zc[x]
			for y := x + 1; y < k; y++ {
				v -= l[y*(y+1)/2+x] * zc[y]
			}
			zc[x] = v / l[x*(x+1)/2+x]
		}
		off += k
	}
}

// The "fast-solver" preconditioner the thesis tries and rejects in §2.3.1:
// every arrow in the Fig 2-6 pipeline is reversible except the "lifting"
// step — we do not know the voltages on the non-contact surface — so the
// preconditioner simply zero-pads the contact-panel residual, inverts the
// eigen-operator mode-by-mode (divide by λ_mn instead of multiplying), and
// restricts back to the contact panels.
//
// The thesis reports: "Experiments we did using this idea indicate that it
// is not promising (the number of iterations isn't reduced much, if at
// all)", because the preconditioner disagrees with A_cc on the (large)
// non-contact portion of the surface. It is implemented here to reproduce
// that negative result (see TestFastSolverPreconditionerNotPromising and
// BenchmarkBemPreconditioner).

// applyFastSolver computes z = M⁻¹·r: zero-pad, DCT, divide by the mode
// scaling, inverse DCT (of the contact-panel columns only, as applyAcc),
// restrict. The DCT round trip contributes a factor (np/2)² that must be
// divided out twice (once per pass), i.e. a total scale of (2/np)⁴
// relative to the raw pipeline.
func (s *Solver) applyFastSolver(plan *dct.Plan, r, z, field []float64) {
	clear(field)
	for i, p := range s.panels {
		field[p] = r[i]
	}
	plan.DCT2D2(field)
	scale := math.Pow(2/float64(s.np), 4)
	for i, il := range s.invLam {
		field[i] *= il * scale
	}
	plan.DCT2D3Cols(field, s.cols)
	for i, p := range s.panels {
		z[i] = field[p]
	}
}
