package fd

import (
	"math"

	"subcouple/internal/dct"
)

// buildIC0 computes the zero-fill incomplete Cholesky factor of the system
// matrix. For the 7-point stencil with lexicographic ordering the sparsity
// patterns of distinct lower neighbors never overlap, so the classic
// no-correction recurrence is the exact IC(0) factorization:
//
//	L_jj = sqrt(a_jj − Σ_k L_jk²),   L_ij = a_ij / L_jj.
func (s *Solver) buildIC0() {
	n := s.NumNodes()
	nx, ny, nz := s.nx, s.ny, s.nz
	plane := nx * ny
	s.icDiag = make([]float64, n)
	s.icX = make([]float64, n) // L entry for link to i-1 neighbor (stored at the higher node)
	s.icY = make([]float64, n) // link to j-1 neighbor
	s.icZ = make([]float64, n) // link to k-1 neighbor

	diag := func(i, j, k, id int) float64 {
		if s.pinned[id] {
			return 1
		}
		var acc float64
		g := s.gxy[k]
		if j > 0 {
			acc += g
		}
		if j < ny-1 {
			acc += g
		}
		if i > 0 {
			acc += g
		}
		if i < nx-1 {
			acc += g
		}
		if k > 0 {
			acc += s.gz[k-1]
		}
		if k < nz-1 {
			acc += s.gz[k]
		}
		if k == 0 && s.Opt.Placement == Outside && s.contactNode[i*ny+j] >= 0 {
			acc += s.gtop
		}
		if k == nz-1 && s.gback > 0 {
			acc += s.gback
		}
		return acc
	}

	for k := 0; k < nz; k++ {
		for i := 0; i < nx; i++ {
			for j := 0; j < ny; j++ {
				id := k*plane + i*ny + j
				if s.pinned[id] {
					s.icDiag[id] = 1
					continue
				}
				d := diag(i, j, k, id)
				// Off-diagonal a_ij = -g for unknown-unknown links.
				if j > 0 && !s.pinned[id-1] {
					l := -s.gxy[k] / s.icDiag[id-1]
					s.icY[id] = l
					d -= l * l
				}
				if i > 0 && !s.pinned[id-ny] {
					l := -s.gxy[k] / s.icDiag[id-ny]
					s.icX[id] = l
					d -= l * l
				}
				if k > 0 && !s.pinned[id-plane] {
					l := -s.gz[k-1] / s.icDiag[id-plane]
					s.icZ[id] = l
					d -= l * l
				}
				if d <= 0 {
					// Safeguard: shift to keep the factorization SPD.
					d = 1e-12
				}
				s.icDiag[id] = math.Sqrt(d)
			}
		}
	}
}

// applyIC0 computes z = (L·Lᵀ)⁻¹ r.
func (s *Solver) applyIC0(r, z []float64) {
	if s.icDiag == nil {
		s.buildIC0()
	}
	n := s.NumNodes()
	ny := s.ny
	plane := s.nx * s.ny
	// Forward solve L y = r (y stored in z).
	for id := 0; id < n; id++ {
		v := r[id]
		if s.icY[id] != 0 {
			v -= s.icY[id] * z[id-1]
		}
		if s.icX[id] != 0 {
			v -= s.icX[id] * z[id-ny]
		}
		if s.icZ[id] != 0 {
			v -= s.icZ[id] * z[id-plane]
		}
		z[id] = v / s.icDiag[id]
	}
	// Backward solve Lᵀ z = y.
	for id := n - 1; id >= 0; id-- {
		v := z[id]
		if id+1 < n && s.icY[id+1] != 0 {
			v -= s.icY[id+1] * z[id+1]
		}
		if id+ny < n && s.icX[id+ny] != 0 {
			v -= s.icX[id+ny] * z[id+ny]
		}
		if id+plane < n && s.icZ[id+plane] != 0 {
			v -= s.icZ[id+plane] * z[id+plane]
		}
		z[id] = v / s.icDiag[id]
	}
}

// buildFastPoisson precomputes the DCT-mode eigenvalues and the blended top
// coupling fraction of the fast-Poisson-solver preconditioner (§2.2.2).
func (s *Solver) buildFastPoisson() {
	s.fpMuX = make([]float64, s.nx)
	for kx := 0; kx < s.nx; kx++ {
		sn := math.Sin(math.Pi * float64(kx) / (2 * float64(s.nx)))
		s.fpMuX[kx] = 4 * sn * sn
	}
	s.fpMuY = make([]float64, s.ny)
	for ky := 0; ky < s.ny; ky++ {
		sn := math.Sin(math.Pi * float64(ky) / (2 * float64(s.ny)))
		s.fpMuY[ky] = 4 * sn * sn
	}
	s.fpBlend = s.Opt.TopBlend
	if s.Opt.AreaWeighted {
		s.fpBlend = s.Layout.TotalContactArea() / (s.Prof.A * s.Prof.B)
	}
	if s.fpBlend < 0 {
		s.fpBlend = 0
	}
	if s.fpBlend > 1 {
		s.fpBlend = 1
	}
}

// applyFastPoisson computes z = M⁻¹·r where M is the uniform-boundary
// grid-of-resistors operator: DCT-II per z-plane, an nz-point tridiagonal
// solve per lateral mode, inverse DCT, and the round-trip 4/(nx·ny) scale.
// One DCT plan serves all 2·nz plane transforms.
func (s *Solver) applyFastPoisson(r, z []float64) {
	if s.fpMuX == nil {
		s.buildFastPoisson()
	}
	nx, ny, nz := s.nx, s.ny, s.nz
	plane := nx * ny
	plan := dct.NewPlan(nx, ny)
	copy(z, r)
	for k := 0; k < nz; k++ {
		plan.DCT2D2(z[k*plane : (k+1)*plane])
	}
	a := make([]float64, nz) // subdiagonal
	bd := make([]float64, nz)
	c := make([]float64, nz) // superdiagonal
	d := make([]float64, nz)
	scratch := make([]float64, nz)
	for kx := 0; kx < nx; kx++ {
		for ky := 0; ky < ny; ky++ {
			mu := s.fpMuX[kx] + s.fpMuY[ky]
			for k := 0; k < nz; k++ {
				var diag float64
				if k > 0 {
					diag += s.gz[k-1]
					a[k] = -s.gz[k-1]
				} else {
					a[k] = 0
				}
				if k < nz-1 {
					diag += s.gz[k]
					c[k] = -s.gz[k]
				} else {
					c[k] = 0
				}
				diag += s.gxy[k] * mu
				if k == 0 {
					diag += s.fpBlend * s.gtop
				}
				if k == nz-1 && s.gback > 0 {
					diag += s.gback
				}
				bd[k] = diag
				d[k] = z[k*plane+kx*ny+ky]
			}
			if kx == 0 && ky == 0 && s.gback == 0 && s.fpBlend == 0 {
				// Pure-Neumann DC mode is singular; regularize gently.
				bd[0] += 1e-8 * s.gtop
			}
			dct.SolveTridiag(a, bd, c, d, scratch)
			for k := 0; k < nz; k++ {
				z[k*plane+kx*ny+ky] = d[k]
			}
		}
	}
	scale := 4 / (float64(nx) * float64(ny))
	for k := 0; k < nz; k++ {
		pl := z[k*plane : (k+1)*plane]
		plan.DCT2D3(pl)
		for i := range pl {
			pl[i] *= scale
		}
	}
}
