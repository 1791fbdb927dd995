// Package dct provides the discrete transforms used by subcouple's substrate
// solvers: fast DCT-II / DCT-III in two dimensions, planned once per field
// size (Plan), and a Thomas tridiagonal solver.
//
// Power-of-two lengths run Makhoul's algorithm on a radix-2 complex FFT,
// two real rows (or columns) per FFT, and a pass skips rows that are
// entirely zero. Other lengths evaluate the defining sums against a cosine
// table. Plan.DCT2D3Cols transforms only the columns its caller reads.
//
// The fast-Poisson-solver preconditioner of the finite-difference solver
// (thesis §2.2.2) diagonalizes the grid-of-resistors operator in the DCT
// basis, and the eigenfunction surface solver (thesis §2.3.1, Fig 2-6)
// applies the current-to-potential operator as DCT → eigenvalue scaling →
// inverse DCT.
//
// Conventions (N = length of the transformed dimension):
//
//	DCT-II:  X_k = Σ_{n=0}^{N-1} x_n · cos(π k (n+½) / N)
//	DCT-III: x_n = X_0/2 + Σ_{k=1}^{N-1} X_k · cos(π k (n+½) / N)
//
// With these conventions DCT-III(DCT-II(x)) = (N/2)·x, which the callers
// fold into their eigenvalue scaling.
package dct

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// DCT2D2 applies DCT-II along both dimensions of an nx-by-ny row-major
// field, in place. It builds a throwaway Plan; a caller transforming many
// fields of one size should build the Plan once.
func DCT2D2(a []float64, nx, ny int) { NewPlan(nx, ny).DCT2D2(a) }

// DCT2D3 applies DCT-III along both dimensions of an nx-by-ny row-major
// field, in place, through a throwaway Plan like DCT2D2.
func DCT2D3(a []float64, nx, ny int) { NewPlan(nx, ny).DCT2D3(a) }

// SolveTridiag solves the tridiagonal system with subdiagonal a (a[0]
// unused), diagonal b, superdiagonal c (c[n-1] unused) and right-hand side
// d, overwriting d with the solution (Thomas algorithm). The scratch slice
// must have length n (it is overwritten).
func SolveTridiag(a, b, c, d, scratch []float64) {
	n := len(b)
	if len(a) != n || len(c) != n || len(d) != n || len(scratch) != n {
		panic("dct: SolveTridiag length mismatch")
	}
	cp := scratch
	beta := b[0]
	if beta == 0 {
		panic("dct: SolveTridiag zero pivot")
	}
	cp[0] = c[0] / beta
	d[0] /= beta
	for i := 1; i < n; i++ {
		beta = b[i] - a[i]*cp[i-1]
		if beta == 0 {
			panic("dct: SolveTridiag zero pivot")
		}
		cp[i] = c[i] / beta
		d[i] = (d[i] - a[i]*d[i-1]) / beta
	}
	for i := n - 2; i >= 0; i-- {
		d[i] -= cp[i] * d[i+1]
	}
}
