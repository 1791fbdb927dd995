package dct

import (
	"math"
	"math/bits"
)

// Plan holds everything the 2-D DCT-II and DCT-III of one nx-by-ny size
// need: per-dimension tables and work buffers. Transforming a field through
// a plan allocates nothing and evaluates no cosine, sine or twiddle.
//
// A pass over the rows (then the columns) skips any row that is entirely
// zero, since its transform is zero, and hands the others to the axis two
// at a time; a power-of-two axis transforms the two through one complex
// FFT. A row's rounding therefore depends on the row it is paired with,
// but the result is still a deterministic function of the field.
//
// A Plan is not safe for concurrent use: the solvers build one per solve.
type Plan struct {
	nx, ny int
	rows   *axis        // length-ny transforms of the rows
	cols   *axis        // length-nx transforms of the columns (rows if nx == ny)
	col    [2][]float64 // column gather buffers, length nx
	every  []int        // every column index, 0..ny-1
}

// NewPlan builds the plan for nx-by-ny row-major fields.
func NewPlan(nx, ny int) *Plan {
	p := &Plan{
		nx: nx, ny: ny,
		rows:  newAxis(ny),
		col:   [2][]float64{make([]float64, nx), make([]float64, nx)},
		every: make([]int, ny),
	}
	p.cols = p.rows
	if nx != ny {
		p.cols = newAxis(nx)
	}
	for j := range p.every {
		p.every[j] = j
	}
	return p
}

// DCT2D2 applies DCT-II along both dimensions of a, in place.
func (p *Plan) DCT2D2(a []float64) { p.transform(a, (*axis).dct2, p.every) }

// DCT2D3 applies DCT-III along both dimensions of a, in place.
func (p *Plan) DCT2D3(a []float64) { p.transform(a, (*axis).dct3, p.every) }

// DCT2D3Cols is DCT2D3 for a caller that reads only some columns of the
// result: its last pass transforms only the columns listed in cols, and
// leaves every other column of a unspecified.
func (p *Plan) DCT2D3Cols(a []float64, cols []int) { p.transform(a, (*axis).dct3, cols) }

// transform runs f over the nonzero rows of a, two at a time, then over the
// nonzero columns listed in cols through the gather buffers. An unpaired
// last row or column goes to f alone, with a nil partner.
func (p *Plan) transform(a []float64, f func(ax *axis, x, y []float64), cols []int) {
	nx, ny := p.nx, p.ny
	if len(a) != nx*ny {
		panic("dct: 2D transform size mismatch")
	}
	var held []float64
	for i := 0; i < nx; i++ {
		row := a[i*ny : (i+1)*ny]
		switch {
		case isZero(row):
		case held == nil:
			held = row
		default:
			f(p.rows, held, row)
			held = nil
		}
	}
	if held != nil {
		f(p.rows, held, nil)
	}
	heldCol := -1
	for _, j := range cols {
		buf := p.col[0]
		if heldCol >= 0 {
			buf = p.col[1]
		}
		for i := range buf {
			buf[i] = a[i*ny+j]
		}
		switch {
		case isZero(buf):
		case heldCol < 0:
			heldCol = j
		default:
			f(p.cols, p.col[0], p.col[1])
			p.scatter(a, heldCol, p.col[0])
			p.scatter(a, j, p.col[1])
			heldCol = -1
		}
	}
	if heldCol >= 0 {
		f(p.cols, p.col[0], nil)
		p.scatter(a, heldCol, p.col[0])
	}
}

// scatter writes col into column j of a.
func (p *Plan) scatter(a []float64, j int, col []float64) {
	for i, x := range col {
		a[i*p.ny+j] = x
	}
}

// isZero reports whether every entry of x is zero. A NaN is not zero.
func isZero(x []float64) bool {
	for _, v := range x {
		if v != 0 {
			return false
		}
	}
	return true
}

// axis holds the tables and scratch of the 1-D transforms of one length n.
// Power-of-two lengths run Makhoul's FFT algorithm on two real sequences at
// once, as the real and imaginary parts of one complex FFT; other lengths
// evaluate the defining sums against a cosine table, one sequence at a
// time.
type axis struct {
	n int

	// FFT path.
	rev      []int        // rev[i] is i with its log2(n) bits reversed
	fwd, inv []complex128 // twiddles: the stage of half-size h at [h-1, 2h-1)
	hc, hs   []float64    // ½cos and ½sin of θ_k = πk/(2n)
	v        []complex128 // FFT work buffer
	spare    []float64    // the partner of a sequence transformed alone

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
		a.hc = make([]float64, n)
		a.hs = make([]float64, n)
		for k := 0; k < n; k++ {
			theta := math.Pi * float64(k) / float64(2*n)
			a.hc[k] = math.Cos(theta) / 2
			a.hs[k] = math.Sin(theta) / 2
		}
		a.v = make([]complex128, n)
		a.spare = make([]float64, n)
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
// repeated multiplication.
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

// dct2 replaces x and y (each of length a.n) with their DCT-IIs. A nil y
// transforms x alone.
func (a *axis) dct2(x, y []float64) {
	n := a.n
	if n <= 1 {
		return // the length-1 DCT-II is the identity
	}
	if a.cosTab != nil {
		a.direct2(x)
		if y != nil {
			a.direct2(y)
		}
		return
	}
	if y == nil {
		y = a.spare
		clear(y)
	}
	// Makhoul's reordering, v_i = x_{2i} and v_{n-1-i} = x_{2i+1}, of
	// x + i·y, stored straight into the FFT's bit-reversed input order.
	v, rev := a.v, a.rev
	for i := 0; i < n/2; i++ {
		v[rev[i]] = complex(x[2*i], y[2*i])
		v[rev[n-1-i]] = complex(x[2*i+1], y[2*i+1])
	}
	fft(v, a.fwd)
	// Z = FFT(v) splits by conjugate symmetry into x's spectrum
	// (Z_k + conj Z_{n-k})/2 and y's (Z_k − conj Z_{n-k})/2i; each then
	// takes the single-sequence post-twiddle X_k = Re(V_k)·cos θ_k +
	// Im(V_k)·sin θ_k. The tables carry the ½. Index k pairs with n−k
	// (0 and n/2 with themselves).
	hc, hs := a.hc, a.hs
	for k := 0; k <= n/2; k++ {
		m := (n - k) & (n - 1)
		zk, zm := v[k], v[m]
		sr, dr := real(zk)+real(zm), real(zk)-real(zm)
		si, di := imag(zk)+imag(zm), imag(zk)-imag(zm)
		x[k] = sr*hc[k] + di*hs[k]
		y[k] = si*hc[k] - dr*hs[k]
		x[m] = sr*hc[m] - di*hs[m]
		y[m] = si*hc[m] + dr*hs[m]
	}
}

// dct3 replaces x and y (each of length a.n) with their DCT-IIIs. A nil y
// transforms x alone.
func (a *axis) dct3(x, y []float64) {
	n := a.n
	if n == 0 {
		return
	}
	if n == 1 {
		x[0] /= 2
		if y != nil {
			y[0] /= 2
		}
		return
	}
	if a.cosTab != nil {
		a.direct3(x)
		if y != nil {
			a.direct3(y)
		}
		return
	}
	if y == nil {
		y = a.spare
		clear(y)
	}
	// Invert the DCT-II path for each sequence, V_0 = X_0 and
	// V_k = e^{iθ_k}(X_k − i·X_{n−k}), and pack the two Hermitian spectra
	// as V_x + i·V_y = e^{iθ_k}(p − i·q) with p = X_k + Y_{n−k} and
	// q = X_{n−k} − Y_k. One inverse FFT returns x in its real part and y
	// in its imaginary part. The inverse FFT's 1/n and the DCT-III
	// convention's n/2 fuse into the tables' exact ½.
	v, rev, hc, hs := a.v, a.rev, a.hc, a.hs
	v[0] = complex(x[0]*hc[0], y[0]*hc[0])
	for k := 1; k < n; k++ {
		p, q := x[k]+y[n-k], x[n-k]-y[k]
		v[rev[k]] = complex(hc[k]*p+hs[k]*q, hs[k]*p-hc[k]*q)
	}
	fft(v, a.inv)
	for i := 0; i < n/2; i++ {
		x[2*i], y[2*i] = real(v[i]), imag(v[i])
		x[2*i+1], y[2*i+1] = real(v[n-1-i]), imag(v[n-1-i])
	}
}

// direct2 replaces x with its DCT-II by the defining sum.
func (a *axis) direct2(x []float64) {
	n := a.n
	for k := range a.out {
		c := a.cosTab[k*n : (k+1)*n]
		var s float64
		for i, xi := range x {
			s += xi * c[i]
		}
		a.out[k] = s
	}
	copy(x, a.out)
}

// direct3 replaces x with its DCT-III by the defining sum.
func (a *axis) direct3(x []float64) {
	n := a.n
	for i := range a.out {
		s := x[0] / 2
		for k := 1; k < n; k++ {
			s += x[k] * a.cosTab[k*n+i]
		}
		a.out[i] = s
	}
	copy(x, a.out)
}
