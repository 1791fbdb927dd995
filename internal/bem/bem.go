// Package bem implements the eigenfunction-based surface-variable substrate
// solver of thesis §2.3 (the QuickSub substitute). The top surface is
// discretized into square panels; the panel-current to panel-potential
// operator A is applied in O(N² log N) as
//
//	zero-pad → 2-D DCT-II → scale by λ_mn·s_m²·s_n²·4/(ab) → 2-D DCT-III → restrict
//
// (Fig 2-6; the sinc factors s_m account for panel averaging of the cosine
// modes). Contact currents for given contact voltages are found by solving
// A_cc·q_c = v_c with preconditioned conjugate gradients on the contact
// panels, then summing panel currents per contact. The default
// preconditioner inverts each contact's own block of A_cc exactly
// (block-Jacobi; precond.go): coupling decays with distance, so most of a
// contact's response comes from its own panels.
package bem

import (
	"fmt"
	"sync"
	"sync/atomic"

	"subcouple/internal/dct"
	"subcouple/internal/geom"
	"subcouple/internal/la"
	"subcouple/internal/obs"
	"subcouple/internal/par"
	"subcouple/internal/solver"
	"subcouple/internal/substrate"
)

// Solver is an eigenfunction-based black-box substrate solver.
type Solver struct {
	Prof   *substrate.Profile
	Pan    *geom.Panelization
	lam    []float64 // per-mode scaling, np*np
	panels []int     // all contact panel indices, concatenated
	owner  []int     // owner[i] = contact owning panels[i]
	cols   []int     // the panel columns holding a contact panel, ascending
	np     int
	Tol    float64
	MaxIts int
	// Workers sizes the goroutine pool SolveBatch fans right-hand sides
	// across (<= 0 selects runtime.NumCPU()).
	Workers int
	// Precond selects the PCG preconditioner (default PrecondBlockJacobi).
	// Set it before the first solve: the preconditioner is built then.
	Precond Precond

	// Preconditioner state, built once by ensurePrecond (precond.go).
	initOnce sync.Once
	initErr  error
	chol     [][]float64 // block-Jacobi: packed Cholesky factor per contact
	invLam   []float64   // fast-solver: 1/λ per mode

	solves     atomic.Int64
	totalIters atomic.Int64

	ms             *obs.Metrics   // precond-setup phase
	mIters, mFinal *obs.Histogram // per-solve iteration count, final residual
	tr             *obs.Tracer    // per-solve spans with convergence args
}

// New builds a solver for the layout on the profile with an np-by-np panel
// grid. The profile must have a grounded backplane (the thesis approximates
// a floating backplane by inserting a resistive layer; see
// substrate.TwoLayer). Contacts must align to the panel grid. New does no
// preconditioner work; the first solve builds it.
func New(prof *substrate.Profile, layout *geom.Layout, np int) (*Solver, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if !prof.Grounded {
		return nil, fmt.Errorf("bem: eigenfunction solver requires a grounded backplane (add a resistive shim layer instead)")
	}
	if prof.A != layout.A || prof.B != layout.B {
		return nil, fmt.Errorf("bem: profile surface %gx%g does not match layout %gx%g", prof.A, prof.B, layout.A, layout.B)
	}
	if !dct.IsPow2(np) {
		return nil, fmt.Errorf("bem: panel count per side %d must be a power of two", np)
	}
	pan, err := geom.Panelize(layout, np)
	if err != nil {
		return nil, err
	}
	s := &Solver{
		Prof:   prof,
		Pan:    pan,
		lam:    prof.LambdaGrid(np),
		np:     np,
		Tol:    1e-9,
		MaxIts: 2000,
	}
	used := make([]bool, np)
	for ci, ps := range pan.ContactPanels {
		for _, p := range ps {
			s.panels = append(s.panels, p)
			s.owner = append(s.owner, ci)
			used[p%np] = true
		}
	}
	for j, u := range used {
		if u {
			s.cols = append(s.cols, j)
		}
	}
	return s, nil
}

// N implements solver.Solver.
func (s *Solver) N() int { return len(s.Pan.ContactPanels) }

// NumPanels returns the number of contact panels (the solver's internal
// variable count, typically much larger than N).
func (s *Solver) NumPanels() int { return len(s.panels) }

// ApplyPanelOperator applies the full-surface current-to-potential operator
// to a panel field (length np*np, row-major), in place, through a throwaway
// DCT plan.
func (s *Solver) ApplyPanelOperator(field []float64) {
	s.applyOperator(dct.NewPlan(s.np, s.np), field)
}

// applyOperator is ApplyPanelOperator through the caller's plan.
func (s *Solver) applyOperator(plan *dct.Plan, field []float64) {
	plan.DCT2D2(field)
	for i, l := range s.lam {
		field[i] *= l
	}
	plan.DCT2D3(field)
}

// applyAcc computes y = A_cc·q on the contact panels, transforming through
// the solve's plan. The inverse transform computes only the panel columns
// that hold contact panels, the only ones read back.
func (s *Solver) applyAcc(plan *dct.Plan, q, y, field []float64) {
	clear(field)
	for i, p := range s.panels {
		field[p] = q[i]
	}
	plan.DCT2D2(field)
	for i, l := range s.lam {
		field[i] *= l
	}
	plan.DCT2D3Cols(field, s.cols)
	for i, p := range s.panels {
		y[i] = field[p]
	}
}

// workspace holds one solve's DCT plan, panel field and PCG vectors. Every
// solve rewrites all of it before reading it, so reusing a workspace never
// changes an answer. A workspace serves one solve at a time.
type workspace struct {
	plan  *dct.Plan
	field []float64 // np*np panel field
	// PCG vectors over the contact panels; z aliases r under PrecondNone.
	q, r, z, p, ap []float64
}

func (s *Solver) newWorkspace() *workspace {
	m := len(s.panels)
	ws := &workspace{
		plan:  dct.NewPlan(s.np, s.np),
		field: make([]float64, s.np*s.np),
		q:     make([]float64, m),
		r:     make([]float64, m),
		p:     make([]float64, m),
		ap:    make([]float64, m),
	}
	ws.z = ws.r
	if s.Precond != PrecondNone {
		ws.z = make([]float64, m)
	}
	return ws
}

// Solve implements solver.Solver: contact voltages in, contact currents out.
func (s *Solver) Solve(v []float64) ([]float64, error) {
	if err := s.ensurePrecond(); err != nil {
		return nil, err
	}
	return s.solveOn(nil, 0, s.newWorkspace(), v)
}

// solveOn solves for v in ws, with trace placement: the emitted "bem/solve"
// span nests under parent (nil = a root span) on the given track, carrying
// the PCG iteration count and final relative residual as args.
// Observability only — the solve itself is identical with tracing on or
// off. The preconditioner must already be built.
func (s *Solver) solveOn(parent *obs.Span, track int, ws *workspace, v []float64) ([]float64, error) {
	n := s.N()
	if len(v) != n {
		return nil, fmt.Errorf("bem: voltage vector length %d, want %d", len(v), n)
	}
	var sp *obs.Span
	if parent != nil {
		sp = parent.ChildOn(track, "bem/solve")
	} else {
		sp = s.tr.BeginOn(track, "bem/solve")
	}
	for i, c := range s.owner {
		ws.r[i] = v[c]
		ws.q[i] = 0
	}
	iters, rel, err := s.iterate(ws)
	s.solves.Add(1)
	s.totalIters.Add(int64(iters))
	s.mIters.Observe(float64(iters))
	s.mFinal.Observe(rel)
	sp.Arg("cg_iters", iters).Arg("final_rel", rel).End()
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i, c := range s.owner {
		out[c] += ws.q[i]
	}
	return out, nil
}

// SetWorkers implements solver.WorkerSetter.
func (s *Solver) SetWorkers(w int) { s.Workers = w }

// SetObs implements obs.Setter: PCG iteration counts land in the
// "bem/cg_iters" histogram, final relative residuals in the
// "bem/cg_final_rel" numerics stat, and the one-time preconditioner build is
// timed as phase "bem/precond_setup". Each solve emits a "bem/solve" span
// (per-worker tracks under a "bem/batch" span for batched solves).
func (s *Solver) SetObs(ms *obs.Metrics, tr *obs.Tracer) {
	s.ms = ms
	s.mIters = ms.Observed("bem/cg_iters")
	s.mFinal = ms.Residual("bem/cg_final_rel")
	s.tr = tr
}

// SolveBatch implements solver.BatchSolver: independent right-hand sides
// run as concurrent PCG solves on the worker pool. Each pool slot owns one
// workspace for the whole batch, every solve rewrites its workspace and
// writes only its output slot, so the batch is bitwise-identical to
// sequential Solve calls.
func (s *Solver) SolveBatch(vs [][]float64) ([][]float64, error) {
	if err := s.ensurePrecond(); err != nil {
		return nil, err
	}
	sp := s.tr.Begin("bem/batch").Arg("batch_size", len(vs))
	out := make([][]float64, len(vs))
	ws := make([]*workspace, par.Workers(s.Workers))
	err := par.DoWorkerErr(s.Workers, len(vs), func(worker, i int) error {
		if ws[worker] == nil {
			ws[worker] = s.newWorkspace()
		}
		r, err := s.solveOn(sp, worker+1, ws[worker], vs[i])
		out[i] = r
		return err
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	return out, nil
}

// iterate solves A_cc·q = b by preconditioned conjugate gradients in ws,
// with b in ws.r and a zero ws.q on entry, returning the iteration count and
// the final relative residual ‖r‖/‖b‖ (read-only health signal). Every
// choice of preconditioner stops on the same unpreconditioned test,
// ‖r‖ ≤ Tol·‖b‖. Under PrecondNone, z aliases r and this is plain CG.
func (s *Solver) iterate(ws *workspace) (int, float64, error) {
	q, r, z, p, ap := ws.q, ws.r, ws.z, ws.p, ws.ap
	bnorm := la.Norm2(r)
	if bnorm == 0 {
		return 0, 0, nil
	}
	s.precondition(ws)
	copy(p, z)
	rz := la.Dot(r, z)
	for it := 1; it <= s.MaxIts; it++ {
		s.applyAcc(ws.plan, p, ap, ws.field)
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
		s.precondition(ws)
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

func errNotPD(pap float64) error {
	return fmt.Errorf("bem: operator not positive definite (pᵀAp=%g)", pap)
}

func errNoConverge(its int, rel float64) error {
	return fmt.Errorf("bem: PCG did not converge in %d iterations (residual %g)", its, rel)
}

// AvgIterations implements solver.IterationReporter.
func (s *Solver) AvgIterations() float64 {
	n := s.solves.Load()
	if n == 0 {
		return 0
	}
	return float64(s.totalIters.Load()) / float64(n)
}

// ResetStats zeroes the iteration statistics.
func (s *Solver) ResetStats() {
	s.solves.Store(0)
	s.totalIters.Store(0)
}

var _ solver.Solver = (*Solver)(nil)
var _ solver.BatchSolver = (*Solver)(nil)
var _ solver.IterationReporter = (*Solver)(nil)
