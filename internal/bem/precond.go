package bem

import (
	"math"

	"subcouple/internal/dct"
	"subcouple/internal/la"
)

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

// UseFastSolverPrecond toggles the §2.3.1 preconditioner; when enabled,
// Solve runs preconditioned CG with it.
func (s *Solver) UseFastSolverPrecond(on bool) {
	s.usePrecond = on
	if on && s.invLam == nil {
		s.invLam = make([]float64, len(s.lam))
		for i, l := range s.lam {
			if l > 0 {
				s.invLam[i] = 1 / l
			}
		}
	}
}

// applyPrecond computes z = M⁻¹·r: zero-pad, DCT, divide by the mode
// scaling, inverse DCT, restrict. The DCT round trip contributes a factor
// (np/2)² that must be divided out twice (once per pass), i.e. a total
// scale of (2/np)⁴ relative to the raw pipeline.
func (s *Solver) applyPrecond(plan *dct.Plan, r, z, field []float64) {
	for i := range field {
		field[i] = 0
	}
	for i, p := range s.panels {
		field[p] = r[i]
	}
	plan.DCT2D2(field)
	scale := math.Pow(2/float64(s.np), 4)
	for i, il := range s.invLam {
		field[i] *= il * scale
	}
	plan.DCT2D3(field)
	for i, p := range s.panels {
		z[i] = field[p]
	}
}

// pcg is the preconditioned variant of cg, used when the (deliberately
// unpromising) §2.3.1 preconditioner is enabled. Like cg it also returns the
// final relative residual ‖r‖/‖b‖, and one plan serves every operator and
// preconditioner apply.
func (s *Solver) pcg(q, b []float64) (int, float64, error) {
	m := len(b)
	plan := dct.NewPlan(s.np, s.np)
	field := make([]float64, s.np*s.np)
	r := append([]float64(nil), b...)
	z := make([]float64, m)
	s.applyPrecond(plan, r, z, field)
	p := append([]float64(nil), z...)
	ap := make([]float64, m)
	bnorm := la.Norm2(b)
	if bnorm == 0 {
		return 0, 0, nil
	}
	rz := la.Dot(r, z)
	for it := 1; it <= s.MaxIts; it++ {
		s.applyAcc(plan, p, ap, field)
		pap := la.Dot(p, ap)
		if pap <= 0 {
			return it, la.Norm2(r) / bnorm, errNotPD(pap)
		}
		alpha := rz / pap
		la.Axpy(alpha, p, q)
		la.Axpy(-alpha, ap, r)
		if rn := la.Norm2(r); rn <= s.Tol*bnorm {
			return it, rn / bnorm, nil
		}
		s.applyPrecond(plan, r, z, field)
		rzNew := la.Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	rel := la.Norm2(r) / bnorm
	return s.MaxIts, rel, errNoConverge(s.MaxIts, rel)
}
