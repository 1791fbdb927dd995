package dct

import (
	"math"
	"math/bits"
)

// Plan holds everything the 2-D DCT-II and DCT-III of one nx-by-ny size
// need: per-dimension tables and work buffers. Transforming a field through
// a plan allocates nothing and evaluates no cosine, sine or twiddle.
//
// Every table entry is computed by the same expression, in the same order,
// as the transform computing it inline would, so planned results are bitwise
// identical to unplanned ones (frozen_test.go pins this).
//
// A Plan is not safe for concurrent use: the solvers build one per solve.
type Plan struct {
	nx, ny int
	rows   *axis     // length-ny transforms of the rows
	cols   *axis     // length-nx transforms of the columns (rows if nx == ny)
	col    []float64 // column gather buffer, length nx
}

// NewPlan builds the plan for nx-by-ny row-major fields.
func NewPlan(nx, ny int) *Plan {
	p := &Plan{nx: nx, ny: ny, rows: newAxis(ny), col: make([]float64, nx)}
	p.cols = p.rows
	if nx != ny {
		p.cols = newAxis(nx)
	}
	return p
}

// DCT2D2 applies DCT-II along both dimensions of a, in place.
func (p *Plan) DCT2D2(a []float64) { p.transform(a, (*axis).dct2) }

// DCT2D3 applies DCT-III along both dimensions of a, in place.
func (p *Plan) DCT2D3(a []float64) { p.transform(a, (*axis).dct3) }

// transform runs f over every row of a, then over every column through the
// gather buffer.
func (p *Plan) transform(a []float64, f func(*axis, []float64)) {
	nx, ny := p.nx, p.ny
	if len(a) != nx*ny {
		panic("dct: 2D transform size mismatch")
	}
	for i := 0; i < nx; i++ {
		f(p.rows, a[i*ny:(i+1)*ny])
	}
	col := p.col
	for j := 0; j < ny; j++ {
		for i := range col {
			col[i] = a[i*ny+j]
		}
		f(p.cols, col)
		for i, x := range col {
			a[i*ny+j] = x
		}
	}
}

// axis holds the tables and scratch of the 1-D transforms of one length n.
// Power-of-two lengths run Makhoul's FFT algorithm; other lengths evaluate
// the defining sums against a cosine table.
type axis struct {
	n int

	// FFT path.
	rev      []int        // rev[i] is i with its log2(n) bits reversed
	fwd, inv []complex128 // twiddles: the stage of half-size h at [h-1, 2h-1)
	cos, sin []float64    // cos and sin of θ_k = πk/(2n)
	v        []complex128 // FFT work buffer

	// Direct path.
	cosTab []float64 // cosTab[k*n+i] = cos(πk(i+½)/n)
	out    []float64 // output buffer
}

func newAxis(n int) *axis {
	a := &axis{n: n}
	switch {
	case n <= 1:
	case IsPow2(n):
		shift := 64 - uint(bits.TrailingZeros(uint(n)))
		a.rev = make([]int, n)
		for i := range a.rev {
			a.rev[i] = int(bits.Reverse64(uint64(i)) >> shift)
		}
		a.fwd = twiddles(n, -1)
		a.inv = twiddles(n, 1)
		a.cos = make([]float64, n)
		a.sin = make([]float64, n)
		for k := 0; k < n; k++ {
			theta := math.Pi * float64(k) / float64(2*n)
			a.cos[k] = math.Cos(theta)
			a.sin[k] = math.Sin(theta)
		}
		a.v = make([]complex128, n)
	default:
		a.cosTab = make([]float64, n*n)
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				a.cosTab[k*n+i] = math.Cos(math.Pi * float64(k) * (float64(i) + 0.5) / float64(n))
			}
		}
		a.out = make([]float64, n)
	}
	return a
}

// twiddles returns the radix-2 twiddles of every stage of a length-n FFT
// (sign -1 forward, +1 inverse). Each stage starts from 1 and steps by
// repeated multiplication, the recurrence an FFT computing its twiddles
// inline runs, so the table holds exactly the values it would use.
func twiddles(n int, sign float64) []complex128 {
	tw := make([]complex128, 0, n-1)
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		ang := sign * 2 * math.Pi / float64(size)
		wstep := complex(math.Cos(ang), math.Sin(ang))
		w := complex(1, 0)
		for k := 0; k < half; k++ {
			tw = append(tw, w)
			w *= wstep
		}
	}
	return tw
}

// fft runs the radix-2 butterflies over v, whose input is already in
// bit-reversed order, with the twiddles tw (a.fwd or a.inv). The inverse
// is not scaled by 1/n.
func fft(v, tw []complex128) {
	n := len(v)
	for half := 1; half < n; half <<= 1 {
		w := tw[half-1 : 2*half-1]
		for start := 0; start < n; start += 2 * half {
			lo := v[start : start+half][:len(w)]
			hi := v[start+half : start+2*half][:len(w)]
			for k, wk := range w {
				a := lo[k]
				b := hi[k] * wk
				lo[k] = a + b
				hi[k] = a - b
			}
		}
	}
}

// dct2 replaces x (length a.n) with its DCT-II.
func (a *axis) dct2(x []float64) {
	n := a.n
	if n <= 1 {
		return // the length-1 DCT-II is the identity
	}
	if a.cosTab != nil {
		for k := range a.out {
			c := a.cosTab[k*n : (k+1)*n]
			var s float64
			for i, xi := range x {
				s += xi * c[i]
			}
			a.out[k] = s
		}
		copy(x, a.out)
		return
	}
	// Makhoul's reordering, v_i = x_{2i} and v_{n-1-i} = x_{2i+1}, stored
	// straight into the FFT's bit-reversed input order.
	v, rev := a.v, a.rev
	for i := 0; i < n/2; i++ {
		v[rev[i]] = complex(x[2*i], 0)
		v[rev[n-1-i]] = complex(x[2*i+1], 0)
	}
	fft(v, a.fwd)
	for k := range x {
		x[k] = real(v[k])*a.cos[k] + imag(v[k])*a.sin[k]
	}
}

// dct3 replaces x (length a.n) with its DCT-III.
func (a *axis) dct3(x []float64) {
	n := a.n
	if n == 0 {
		return
	}
	if n == 1 {
		x[0] /= 2
		return
	}
	if a.cosTab != nil {
		for i := range a.out {
			s := x[0] / 2
			for k := 1; k < n; k++ {
				s += x[k] * a.cosTab[k*n+i]
			}
			a.out[i] = s
		}
		copy(x, a.out)
		return
	}
	// Invert the DCT-II path: V_0 = X_0, V_k = e^{iθ_k}(X_k − i·X_{n−k}),
	// v = IFFT(V), then undo the reordering.
	v, rev := a.v, a.rev
	v[0] = complex(x[0], 0)
	for k := 1; k < n; k++ {
		e := complex(a.cos[k], a.sin[k])
		v[rev[k]] = e * complex(x[k], -x[n-k])
	}
	fft(v, a.inv)
	// Two roundings, kept apart: the inverse FFT's 1/n, then the DCT-III
	// convention's n/2.
	nf := float64(n)
	half := nf / 2
	for i := 0; i < n/2; i++ {
		x[2*i] = real(v[i]) / nf * half
		x[2*i+1] = real(v[n-1-i]) / nf * half
	}
}
