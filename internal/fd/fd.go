// Package fd implements the finite-difference "grid of resistors" substrate
// solver of thesis §2.2. Poisson's equation is discretized on a regular 3-D
// grid of nodes at cell centers (boundaries fall h/2 beyond the outermost
// nodes, Fig 2-3); resistors crossing layer boundaries are combined in
// series (eq. 2.8, Fig 2-2); sidewalls and the non-contact top surface get
// Neumann conditions by omitting resistors; and contacts impose Dirichlet
// conditions with either node placement of Fig 2-4 (just outside or just
// inside the substrate).
//
// The resulting SPD system is solved with preconditioned conjugate
// gradients. Three preconditioners are provided (§2.2.2, Table 2.1):
// none, incomplete Cholesky IC(0), and the fast-Poisson-solver
// preconditioner that diagonalizes the laterally homogeneous operator with
// a 2-D DCT and solves a tridiagonal system per mode, with a Dirichlet /
// Neumann / area-weighted blended top face.
package fd

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"subcouple/internal/geom"
	"subcouple/internal/la"
	"subcouple/internal/obs"
	"subcouple/internal/par"
	"subcouple/internal/solver"
	"subcouple/internal/substrate"
)

// Placement selects where contact Dirichlet nodes sit (Fig 2-4).
type Placement int

const (
	// Outside places Dirichlet nodes in a virtual layer just above the
	// substrate, connected to the top-plane nodes (the thesis's first,
	// more convenient choice).
	Outside Placement = iota
	// Inside makes the top-plane nodes under contacts Dirichlet nodes
	// themselves (the thesis's second choice, used for its reported
	// results).
	Inside
)

// Precond selects the PCG preconditioner.
type Precond int

const (
	// PrecondNone runs plain CG.
	PrecondNone Precond = iota
	// PrecondIC0 uses zero-fill incomplete Cholesky.
	PrecondIC0
	// PrecondFastPoisson uses the DCT-diagonalized fast Poisson solver.
	PrecondFastPoisson
	// PrecondMultigrid uses a symmetric geometric-multigrid V-cycle
	// (requires the Outside Dirichlet placement).
	PrecondMultigrid
)

// Options configures a Solver.
type Options struct {
	H         float64   // grid spacing; surface dims and depth must be multiples
	Placement Placement // Dirichlet node placement
	Precond   Precond
	// TopBlend is the fraction p of the Dirichlet top coupling included in
	// the fast-Poisson preconditioner: 0 = pure Neumann, 1 = pure
	// Dirichlet. Ignored unless Precond == PrecondFastPoisson.
	TopBlend float64
	// AreaWeighted overrides TopBlend with the thesis's area-weighted
	// choice: total contact area / total top surface area.
	AreaWeighted bool
	Tol          float64 // relative residual tolerance (default 1e-8)
	MaxIts       int     // default 10000
	// Workers sizes the goroutine pool SolveBatch fans right-hand sides
	// across (<= 0 selects runtime.NumCPU()). Each PCG run is independent,
	// so results are identical for any value.
	Workers int
}

// Solver is a finite-difference black-box substrate solver.
type Solver struct {
	Prof   *substrate.Profile
	Layout *geom.Layout
	Opt    Options

	nx, ny, nz int
	h          float64
	gxy        []float64 // horizontal link conductance per z-plane, σ(k)·h
	gz         []float64 // vertical link conductance between planes k,k+1
	gback      float64   // bottom-node to backplane conductance (0 if floating)
	gtop       float64   // top-node to outside-Dirichlet-node conductance

	// contactNode[i*ny+j] = contact index under top node (i,j), or -1.
	contactNode []int
	// pinned marks Dirichlet nodes (Inside placement, top plane only).
	pinned []bool

	// IC(0) factors (lazily built).
	icDiag, icX, icY, icZ []float64

	// fast-Poisson preconditioner data (lazily built).
	fpMuX, fpMuY []float64
	fpBlend      float64

	// multigrid preconditioner hierarchy (lazily built).
	mg *multigrid

	// initOnce guards the lazy preconditioner builds so concurrent Solve
	// calls from SolveBatch share one construction.
	initOnce sync.Once
	initErr  error

	solves     atomic.Int64
	totalIters atomic.Int64

	ms             *obs.Metrics   // precond-setup phase
	mIters, mFinal *obs.Histogram // per-solve iteration count, final residual
	tr             *obs.Tracer    // per-solve spans with convergence args
}

// New builds a finite-difference solver. The lateral dimensions and depth of
// the profile must be integer multiples of opt.H, and every layer boundary
// must fall on a multiple of H (so each cell lies in one layer; boundaries
// then sit exactly halfway between node planes, as the thesis assumes).
func New(prof *substrate.Profile, layout *geom.Layout, opt Options) (*Solver, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if opt.H <= 0 {
		return nil, fmt.Errorf("fd: grid spacing must be positive")
	}
	if opt.Tol == 0 {
		opt.Tol = 1e-8
	}
	if opt.MaxIts == 0 {
		opt.MaxIts = 10000
	}
	mult := func(v float64) (int, bool) {
		f := v / opt.H
		r := math.Round(f)
		return int(r), math.Abs(f-r) < 1e-9 && r >= 1
	}
	nx, ok := mult(prof.A)
	if !ok {
		return nil, fmt.Errorf("fd: surface width %g not a multiple of h=%g", prof.A, opt.H)
	}
	ny, ok := mult(prof.B)
	if !ok {
		return nil, fmt.Errorf("fd: surface height %g not a multiple of h=%g", prof.B, opt.H)
	}
	nz, ok := mult(prof.Depth())
	if !ok {
		return nil, fmt.Errorf("fd: depth %g not a multiple of h=%g", prof.Depth(), opt.H)
	}
	s := &Solver{Prof: prof, Layout: layout, Opt: opt, nx: nx, ny: ny, nz: nz, h: opt.H}

	// Per-cell conductivity by depth; cell k spans depth [k·h, (k+1)·h].
	sigma := make([]float64, nz)
	for k := 0; k < nz; k++ {
		depth := (float64(k) + 0.5) * opt.H
		var acc float64
		found := false
		for _, l := range prof.Layers {
			acc += l.Thickness
			if depth < acc+1e-12 {
				sigma[k] = l.Sigma
				found = true
				break
			}
		}
		if !found {
			sigma[k] = prof.Layers[len(prof.Layers)-1].Sigma
		}
	}
	s.gxy = make([]float64, nz)
	for k := 0; k < nz; k++ {
		s.gxy[k] = sigma[k] * opt.H
	}
	// Vertical links: series combination across the cell boundary (eq 2.8).
	// With layer boundaries on cell boundaries, each half-link lies in one
	// layer: g = h / (½/σ_k + ½/σ_{k+1}).
	s.gz = make([]float64, nz-1)
	for k := 0; k < nz-1; k++ {
		s.gz[k] = opt.H / (0.5/sigma[k] + 0.5/sigma[k+1])
	}
	if prof.Grounded {
		// Backplane at the boundary, h/2 below the last node plane.
		s.gback = 2 * sigma[nz-1] * opt.H
	}
	s.gtop = sigma[0] * opt.H

	// Map top nodes to contacts.
	s.contactNode = make([]int, nx*ny)
	for i := range s.contactNode {
		s.contactNode[i] = -1
	}
	for ci, c := range layout.Contacts {
		covered := false
		for i := 0; i < nx; i++ {
			x := (float64(i) + 0.5) * opt.H
			if x < c.X0 || x > c.X1 {
				continue
			}
			for j := 0; j < ny; j++ {
				y := (float64(j) + 0.5) * opt.H
				if y < c.Y0 || y > c.Y1 {
					continue
				}
				if prev := s.contactNode[i*ny+j]; prev != -1 && prev != ci {
					return nil, fmt.Errorf("fd: node (%d,%d) claimed by contacts %d and %d", i, j, prev, ci)
				}
				s.contactNode[i*ny+j] = ci
				covered = true
			}
		}
		if !covered {
			return nil, fmt.Errorf("fd: contact %d covers no grid node at h=%g; refine the grid", ci, opt.H)
		}
	}
	s.pinned = make([]bool, nx*ny*nz)
	if opt.Placement == Inside {
		for ij, ci := range s.contactNode {
			if ci >= 0 {
				s.pinned[ij] = true // top plane is k=0, idx = 0*nx*ny + ij
			}
		}
	}
	if !prof.Grounded && layout.N() == 0 {
		return nil, fmt.Errorf("fd: floating backplane with no contacts is singular")
	}
	if opt.Precond == PrecondMultigrid && opt.Placement != Outside {
		return nil, fmt.Errorf("fd: the multigrid preconditioner requires the Outside Dirichlet placement")
	}
	return s, nil
}

// N implements solver.Solver.
func (s *Solver) N() int { return s.Layout.N() }

// NumNodes returns the total grid node count.
func (s *Solver) NumNodes() int { return s.nx * s.ny * s.nz }

func (s *Solver) idx(i, j, k int) int { return k*s.nx*s.ny + i*s.ny + j }

// applyA computes y = A·x on the unknown subspace (pinned entries of x are
// ignored; pinned entries of y are zero).
func (s *Solver) applyA(x, y []float64) {
	nx, ny, nz := s.nx, s.ny, s.nz
	plane := nx * ny
	for k := 0; k < nz; k++ {
		g := s.gxy[k]
		for i := 0; i < nx; i++ {
			for j := 0; j < ny; j++ {
				id := k*plane + i*ny + j
				if s.pinned[id] {
					y[id] = 0
					continue
				}
				xi := x[id]
				var acc float64
				// Horizontal links. A pinned neighbor contributes g·x_self
				// (its value is known and lives on the RHS).
				if j > 0 {
					if s.pinned[id-1] {
						acc += g * xi
					} else {
						acc += g * (xi - x[id-1])
					}
				}
				if j < ny-1 {
					if s.pinned[id+1] {
						acc += g * xi
					} else {
						acc += g * (xi - x[id+1])
					}
				}
				if i > 0 {
					if s.pinned[id-ny] {
						acc += g * xi
					} else {
						acc += g * (xi - x[id-ny])
					}
				}
				if i < nx-1 {
					if s.pinned[id+ny] {
						acc += g * xi
					} else {
						acc += g * (xi - x[id+ny])
					}
				}
				// Vertical links.
				if k > 0 {
					gz := s.gz[k-1]
					if s.pinned[id-plane] {
						acc += gz * xi
					} else {
						acc += gz * (xi - x[id-plane])
					}
				}
				if k < nz-1 {
					gz := s.gz[k]
					if s.pinned[id+plane] {
						acc += gz * xi
					} else {
						acc += gz * (xi - x[id+plane])
					}
				}
				// Top Dirichlet coupling (Outside placement) and backplane.
				if k == 0 && s.Opt.Placement == Outside && s.contactNode[i*ny+j] >= 0 {
					acc += s.gtop * xi
				}
				if k == nz-1 && s.gback > 0 {
					acc += s.gback * xi
				}
				y[id] = acc
			}
		}
	}
}

// rhs builds the right-hand side for contact voltages v.
func (s *Solver) rhs(v []float64) []float64 {
	nx, ny := s.nx, s.ny
	plane := nx * ny
	b := make([]float64, s.NumNodes())
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			ci := s.contactNode[i*ny+j]
			if ci < 0 {
				continue
			}
			vc := v[ci]
			id := i*ny + j // top plane
			switch s.Opt.Placement {
			case Outside:
				b[id] += s.gtop * vc
			case Inside:
				// Neighbors of the pinned node receive g·vc.
				g := s.gxy[0]
				if j > 0 && !s.pinned[id-1] {
					b[id-1] += g * vc
				}
				if j < ny-1 && !s.pinned[id+1] {
					b[id+1] += g * vc
				}
				if i > 0 && !s.pinned[id-ny] {
					b[id-ny] += g * vc
				}
				if i < nx-1 && !s.pinned[id+ny] {
					b[id+ny] += g * vc
				}
				if s.nz > 1 {
					b[id+plane] += s.gz[0] * vc
				}
			}
		}
	}
	return b
}

// ensurePrecond builds the configured preconditioner exactly once, before
// any PCG iteration reads it — required for SolveBatch, whose concurrent
// Solve calls would otherwise race on the lazy builds.
func (s *Solver) ensurePrecond() error {
	s.initOnce.Do(func() {
		stop := s.ms.Phase("fd/precond_setup")
		defer stop()
		switch s.Opt.Precond {
		case PrecondIC0:
			s.buildIC0()
		case PrecondFastPoisson:
			s.buildFastPoisson()
		case PrecondMultigrid:
			s.initErr = s.buildMultigrid()
		}
	})
	return s.initErr
}

// Solve implements solver.Solver.
func (s *Solver) Solve(v []float64) ([]float64, error) {
	return s.solveOn(nil, 0, v)
}

// solveOn is Solve with trace placement: the emitted "fd/solve" span nests
// under parent (nil = a root span) on the given track. The span carries the
// PCG iteration count and final relative residual as args — observability
// only; the solve itself is identical with tracing on or off.
func (s *Solver) solveOn(parent *obs.Span, track int, v []float64) ([]float64, error) {
	if len(v) != s.N() {
		return nil, fmt.Errorf("fd: voltage vector length %d, want %d", len(v), s.N())
	}
	if err := s.ensurePrecond(); err != nil {
		return nil, err
	}
	var sp *obs.Span
	if parent != nil {
		sp = parent.ChildOn(track, "fd/solve")
	} else {
		sp = s.tr.BeginOn(track, "fd/solve")
	}
	b := s.rhs(v)
	x := make([]float64, s.NumNodes())
	iters, rel, err := s.pcg(x, b)
	s.solves.Add(1)
	s.totalIters.Add(int64(iters))
	s.mIters.Observe(float64(iters))
	s.mFinal.Observe(rel)
	sp.Arg("pcg_iters", iters).Arg("final_rel", rel).End()
	if err != nil {
		return nil, err
	}
	return s.contactCurrents(v, x), nil
}

// SetWorkers implements solver.WorkerSetter.
func (s *Solver) SetWorkers(w int) { s.Opt.Workers = w }

// SetObs implements obs.Setter: PCG iteration counts land in the
// "fd/pcg_iters" histogram, final relative residuals in the
// "fd/pcg_final_rel" numerics stat, and the one-time preconditioner build is
// timed as phase "fd/precond_setup". Each solve emits an "fd/solve" span
// (per-worker tracks under an "fd/batch" span for batched solves).
func (s *Solver) SetObs(ms *obs.Metrics, tr *obs.Tracer) {
	s.ms = ms
	s.mIters = ms.Observed("fd/pcg_iters")
	s.mFinal = ms.Residual("fd/pcg_final_rel")
	s.tr = tr
}

// SolveBatch implements solver.BatchSolver: independent right-hand sides
// run as concurrent PCG solves on the worker pool. Each solve is a fully
// independent iteration writing its own output slot, so the batch is
// bitwise-identical to sequential Solve calls.
func (s *Solver) SolveBatch(vs [][]float64) ([][]float64, error) {
	if err := s.ensurePrecond(); err != nil {
		return nil, err
	}
	sp := s.tr.Begin("fd/batch").Arg("batch_size", len(vs))
	out := make([][]float64, len(vs))
	err := par.DoWorkerErr(s.Opt.Workers, len(vs), func(worker, i int) error {
		r, err := s.solveOn(sp, worker+1, vs[i])
		out[i] = r
		return err
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	return out, nil
}

// contactCurrents assembles per-contact currents from the node potentials.
func (s *Solver) contactCurrents(v, x []float64) []float64 {
	nx, ny := s.nx, s.ny
	plane := nx * ny
	out := make([]float64, s.N())
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			ci := s.contactNode[i*ny+j]
			if ci < 0 {
				continue
			}
			vc := v[ci]
			id := i*ny + j
			switch s.Opt.Placement {
			case Outside:
				out[ci] += s.gtop * (vc - x[id])
			case Inside:
				// Current out of the pinned node into the grid. A pinned
				// neighbor belongs to some contact with known voltage.
				val := func(nid int) float64 {
					if s.pinned[nid] {
						return v[s.contactNode[nid]]
					}
					return x[nid]
				}
				g := s.gxy[0]
				if j > 0 {
					out[ci] += g * (vc - val(id-1))
				}
				if j < ny-1 {
					out[ci] += g * (vc - val(id+1))
				}
				if i > 0 {
					out[ci] += g * (vc - val(id-ny))
				}
				if i < nx-1 {
					out[ci] += g * (vc - val(id+ny))
				}
				if s.nz > 1 {
					out[ci] += s.gz[0] * (vc - x[id+plane])
				}
			}
		}
	}
	return out
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

// pcg runs preconditioned conjugate gradients, returning the iteration count
// and the final relative residual ‖r‖/‖b‖ (a read-only health signal — it
// reuses the norm the convergence test already computed).
func (s *Solver) pcg(x, b []float64) (int, float64, error) {
	n := len(b)
	r := make([]float64, n)
	copy(r, b)
	z := make([]float64, n)
	s.applyPrecond(r, z)
	p := make([]float64, n)
	copy(p, z)
	ap := make([]float64, n)
	bnorm := la.Norm2(b)
	if bnorm == 0 {
		return 0, 0, nil
	}
	rz := la.Dot(r, z)
	for it := 1; it <= s.Opt.MaxIts; it++ {
		s.applyA(p, ap)
		pap := la.Dot(p, ap)
		if pap <= 0 {
			return it, la.Norm2(r) / bnorm, fmt.Errorf("fd: system not positive definite (pᵀAp=%g)", pap)
		}
		alpha := rz / pap
		la.Axpy(alpha, p, x)
		la.Axpy(-alpha, ap, r)
		if rn := la.Norm2(r); rn <= s.Opt.Tol*bnorm {
			return it, rn / bnorm, nil
		}
		s.applyPrecond(r, z)
		rzNew := la.Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	rel := la.Norm2(r) / bnorm
	return s.Opt.MaxIts, rel, fmt.Errorf("fd: PCG did not converge in %d iterations (residual %g)",
		s.Opt.MaxIts, rel)
}

// applyPrecond computes z = M⁻¹·r for the configured preconditioner.
func (s *Solver) applyPrecond(r, z []float64) {
	switch s.Opt.Precond {
	case PrecondNone:
		copy(z, r)
	case PrecondIC0:
		s.applyIC0(r, z)
	case PrecondFastPoisson:
		s.applyFastPoisson(r, z)
	case PrecondMultigrid:
		s.applyMultigrid(r, z)
	}
	// Stay in the unknown subspace.
	for i, p := range s.pinned {
		if p {
			z[i] = 0
		}
	}
}
