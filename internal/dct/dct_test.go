package dct

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// dct2Direct and dct3Direct evaluate the defining sums (see the package
// conventions) with the cosines computed inline: the tolerance reference
// for the fast transforms.
func dct2Direct(x []float64) []float64 {
	n := len(x)
	out := make([]float64, n)
	for k := 0; k < n; k++ {
		var s float64
		for i, xi := range x {
			s += xi * math.Cos(math.Pi*float64(k)*(float64(i)+0.5)/float64(n))
		}
		out[k] = s
	}
	return out
}

func dct3Direct(x []float64) []float64 {
	n := len(x)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		s := x[0] / 2
		for k := 1; k < n; k++ {
			s += x[k] * math.Cos(math.Pi*float64(k)*(float64(i)+0.5)/float64(n))
		}
		out[i] = s
	}
	return out
}

// planDCT2 and planDCT3 run x alone through a fresh plan's 1-D transform.
func planDCT2(x []float64) []float64 {
	y := append([]float64(nil), x...)
	newAxis(len(y)).dct2(y, nil)
	return y
}

func planDCT3(x []float64) []float64 {
	y := append([]float64(nil), x...)
	newAxis(len(y)).dct3(y, nil)
	return y
}

// planFFT returns the DFT of x (len(x) a power of two) computed by a plan's
// tables and butterflies: X_k = Σ_n x_n e^{∓2πi kn/N}, the unscaled
// inverse when inverse is set.
func planFFT(x []complex128, inverse bool) []complex128 {
	a := newAxis(len(x))
	v := append([]complex128(nil), x...)
	if len(x) <= 1 {
		return v
	}
	for i, j := range a.rev {
		v[j] = x[i]
	}
	tw := a.fwd
	if inverse {
		tw = a.inv
	}
	fft(v, tw)
	return v
}

func TestFFTKnownValues(t *testing.T) {
	// FFT of a delta is all-ones.
	x := make([]complex128, 8)
	x[0] = 1
	for i, v := range planFFT(x, false) {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("delta FFT[%d] = %v", i, v)
		}
	}
	// FFT of constant is a scaled delta.
	for i := range x {
		x[i] = 2
	}
	y := planFFT(x, false)
	if cmplx.Abs(y[0]-16) > 1e-12 {
		t.Fatalf("const FFT[0] = %v", y[0])
	}
	for i := 1; i < 8; i++ {
		if cmplx.Abs(y[i]) > 1e-12 {
			t.Fatalf("const FFT[%d] = %v", i, y[i])
		}
	}
}

func TestFFTMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, n := range []int{1, 2, 4, 8, 16, 64} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		for _, inverse := range []bool{false, true} {
			sign := -2.0
			if inverse {
				sign = 2
			}
			got := planFFT(x, inverse)
			for k := range got {
				var want complex128
				for i := 0; i < n; i++ {
					ang := sign * math.Pi * float64(k*i) / float64(n)
					want += x[i] * cmplx.Exp(complex(0, ang))
				}
				if cmplx.Abs(got[k]-want) > 1e-9 {
					t.Fatalf("n=%d inverse=%v k=%d: %v vs %v", n, inverse, k, got[k], want)
				}
			}
		}
	}
}

func TestFFTIFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x := make([]complex128, 32)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	y := planFFT(planFFT(x, false), true)
	for i := range x {
		if cmplx.Abs(y[i]/32-x[i]) > 1e-12 {
			t.Fatalf("round trip failed at %d", i)
		}
	}
}

func TestDCT2MatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{1, 2, 3, 4, 8, 12, 32, 128} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := planDCT2(x)
		want := dct2Direct(x)
		for k := range got {
			if math.Abs(got[k]-want[k]) > 1e-9 {
				t.Fatalf("n=%d k=%d: %g vs %g", n, k, got[k], want[k])
			}
		}
	}
}

func TestDCT3MatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 2, 4, 5, 16, 24, 64} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := planDCT3(x)
		want := dct3Direct(x)
		for k := range got {
			if math.Abs(got[k]-want[k]) > 1e-9 {
				t.Fatalf("n=%d k=%d: %g vs %g", n, k, got[k], want[k])
			}
		}
	}
}

func TestDCTRoundTripProperty(t *testing.T) {
	// DCT3(DCT2(x)) = (N/2)·x for every signal.
	f := func(raw []float64) bool {
		n := 1
		for n < len(raw) && n < 64 {
			n *= 2
		}
		x := make([]float64, n)
		for i := range x {
			if i < len(raw) && !math.IsNaN(raw[i]) && !math.IsInf(raw[i], 0) && math.Abs(raw[i]) < 1e12 {
				x[i] = raw[i]
			} else {
				x[i] = float64(i)
			}
		}
		y := planDCT3(planDCT2(x))
		scale := float64(n) / 2
		var amp float64 = 1
		for _, v := range x {
			if math.Abs(v) > amp {
				amp = math.Abs(v)
			}
		}
		for i := range x {
			if math.Abs(y[i]-scale*x[i]) > 1e-8*scale*amp {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDCT2CosineModeIsEigenvector(t *testing.T) {
	// DCT-II of cos(πm(n+½)/N) has a single nonzero bin at k=m with value N/2
	// (N for m=0).
	n := 32
	for _, m := range []int{0, 1, 5, 31} {
		x := make([]float64, n)
		for i := range x {
			x[i] = math.Cos(math.Pi * float64(m) * (float64(i) + 0.5) / float64(n))
		}
		y := planDCT2(x)
		want := float64(n) / 2
		if m == 0 {
			want = float64(n)
		}
		for k := range y {
			target := 0.0
			if k == m {
				target = want
			}
			if math.Abs(y[k]-target) > 1e-9 {
				t.Fatalf("m=%d k=%d: %g want %g", m, k, y[k], target)
			}
		}
	}
}

func TestDCT2DRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	nx, ny := 8, 16
	a := make([]float64, nx*ny)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	orig := append([]float64(nil), a...)
	DCT2D2(a, nx, ny)
	DCT2D3(a, nx, ny)
	scale := float64(nx) / 2 * float64(ny) / 2
	for i := range a {
		if math.Abs(a[i]-scale*orig[i]) > 1e-9*scale {
			t.Fatalf("2D round trip failed at %d: %g vs %g", i, a[i], scale*orig[i])
		}
	}
}

// sameBits reports the first index where got and want differ in their bit
// patterns, or -1.
func sameBits(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// TestPlanReuseMatchesThrowaway runs several fields through one plan, with
// a power-of-two and a direct-sum dimension, and requires the bits of
// throwaway-plan transforms: a reused plan's scratch carries nothing over.
func TestPlanReuseMatchesThrowaway(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for _, sz := range [][2]int{{12, 32}, {32, 12}, {16, 16}} {
		nx, ny := sz[0], sz[1]
		p := NewPlan(nx, ny)
		for round := 0; round < 3; round++ {
			a := make([]float64, nx*ny)
			for i := range a {
				a[i] = rng.NormFloat64()
			}
			want := append([]float64(nil), a...)
			p.DCT2D2(a)
			DCT2D2(want, nx, ny)
			p.DCT2D3(a)
			DCT2D3(want, nx, ny)
			if i := sameBits(a, want); i >= 0 {
				t.Fatalf("%dx%d round %d: entry %d differs: %g vs %g", nx, ny, round, i, a[i], want[i])
			}
		}
	}
}

// direct2D applies the 1-D reference f along every row, then every column,
// of an nx-by-ny row-major field, in place.
func direct2D(a []float64, nx, ny int, f func([]float64) []float64) {
	for i := 0; i < nx; i++ {
		copy(a[i*ny:(i+1)*ny], f(a[i*ny:(i+1)*ny]))
	}
	col := make([]float64, nx)
	for j := 0; j < ny; j++ {
		for i := range col {
			col[i] = a[i*ny+j]
		}
		for i, x := range f(col) {
			a[i*ny+j] = x
		}
	}
}

// checkDirect2D runs DCT2D2, DCT2D3 and DCT2D3Cols of a through a plan and
// requires every entry within 1e-12·max|ref| of the direct sums along both
// axes. DCT2D3Cols keeps the columns j with j%4 != 3, the columns that hold
// Example 3's contact panels, and only those are compared. It returns the
// worst error found, relative to max|ref|.
func checkDirect2D(t *testing.T, name string, a []float64, nx, ny int) (worst float64) {
	t.Helper()
	p := NewPlan(nx, ny)
	var kept []int
	for j := 0; j < ny; j++ {
		if j%4 != 3 {
			kept = append(kept, j)
		}
	}
	for _, step := range []struct {
		name string
		plan func([]float64)
		ref  func([]float64) []float64
		all  bool // every column is compared
	}{
		{"DCT2D2", p.DCT2D2, dct2Direct, true},
		{"DCT2D3", p.DCT2D3, dct3Direct, true},
		{"DCT2D3Cols", func(a []float64) { p.DCT2D3Cols(a, kept) }, dct3Direct, false},
	} {
		got := append([]float64(nil), a...)
		want := append([]float64(nil), a...)
		step.plan(got)
		direct2D(want, nx, ny, step.ref)
		var scale float64
		for _, w := range want {
			scale = max(scale, math.Abs(w))
		}
		for i := range want {
			if !step.all && i%ny%4 == 3 {
				continue
			}
			d := math.Abs(got[i] - want[i])
			if !(d <= 1e-12*scale) {
				t.Fatalf("%s %dx%d %s: entry %d is %.17g, direct %.17g (max |direct| %g)",
					name, nx, ny, step.name, i, got[i], want[i], scale)
			}
			if scale > 0 {
				worst = max(worst, d/scale)
			}
		}
	}
	return worst
}

// TestPlanMatchesDirect holds the planned transforms to the defining sums,
// per element, at every 2-D size and every 1-D length up to 256, on random
// fields and on the shapes that exercise the row pairing and the zero-row
// skip: every fourth row zero (Example 3's panel field), odd row counts and
// one nonzero row.
func TestPlanMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	field := func(nx, ny int, zeroRow func(i int) bool) []float64 {
		a := make([]float64, nx*ny)
		for i := 0; i < nx; i++ {
			if zeroRow(i) {
				continue
			}
			for j := 0; j < ny; j++ {
				a[i*ny+j] = rng.NormFloat64()
			}
		}
		return a
	}
	dense := func(int) bool { return false }
	for _, sz := range [][2]int{
		{1, 1}, {2, 2}, {8, 16}, {16, 8}, {24, 24}, {64, 64},
		{128, 128}, {256, 256}, {12, 20}, {3, 5}, {3, 8}, {5, 128},
	} {
		worst := checkDirect2D(t, "random", field(sz[0], sz[1], dense), sz[0], sz[1])
		t.Logf("%dx%d: worst entry off by %.2g of max|direct|", sz[0], sz[1], worst)
	}
	for n := 1; n <= 256; n++ {
		checkDirect2D(t, "1-D", field(1, n, dense), 1, n)
		checkDirect2D(t, "1-D", field(n, 1, dense), n, 1)
	}
	everyFourth := func(i int) bool { return i%4 == 3 }
	for _, sz := range [][2]int{{8, 16}, {24, 24}, {12, 20}, {128, 128}, {5, 128}} {
		checkDirect2D(t, "every fourth row zero", field(sz[0], sz[1], everyFourth), sz[0], sz[1])
	}
	for _, sz := range [][2]int{{8, 16}, {12, 20}, {128, 128}} {
		one := func(i int) bool { return i != sz[0]/2 }
		checkDirect2D(t, "one nonzero row", field(sz[0], sz[1], one), sz[0], sz[1])
	}
}

// TestZeroAndNaNRows: the zero-row skip leaves a zero field zero, and a
// row holding one NaN is not skipped, so the NaN reaches every entry.
func TestZeroAndNaNRows(t *testing.T) {
	for _, sz := range [][2]int{{8, 16}, {12, 20}} {
		nx, ny := sz[0], sz[1]
		p := NewPlan(nx, ny)
		a := make([]float64, nx*ny)
		p.DCT2D2(a)
		p.DCT2D3(a)
		for i, x := range a {
			if x != 0 {
				t.Fatalf("%dx%d zero field: entry %d is %g", nx, ny, i, x)
			}
		}
		a[3*ny+5] = math.NaN()
		p.DCT2D2(a)
		for i, x := range a {
			if !math.IsNaN(x) {
				t.Fatalf("%dx%d: entry %d is %g after DCT2D2 of a NaN, want NaN", nx, ny, i, x)
			}
		}
	}
}

// TestPlanPairDoesNotAllocate pins the solvers' per-iteration transform
// pair at the extraction size to zero allocations.
func TestPlanPairDoesNotAllocate(t *testing.T) {
	p := NewPlan(128, 128)
	a := make([]float64, 128*128)
	for i := range a {
		a[i] = float64(i%17) - 8
	}
	if n := testing.AllocsPerRun(5, func() {
		p.DCT2D2(a)
		p.DCT2D3(a)
	}); n != 0 {
		t.Fatalf("DCT2D2+DCT2D3 through a plan: %v allocs, want 0", n)
	}
}

func TestSolveTridiag(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	n := 50
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = rng.Float64()
		c[i] = rng.Float64()
		b[i] = 2 + a[i] + c[i] // diagonally dominant
		x[i] = rng.NormFloat64()
	}
	// d = T x.
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		d[i] = b[i] * x[i]
		if i > 0 {
			d[i] += a[i] * x[i-1]
		}
		if i < n-1 {
			d[i] += c[i] * x[i+1]
		}
	}
	scratch := make([]float64, n)
	SolveTridiag(a, b, c, d, scratch)
	for i := range x {
		if math.Abs(d[i]-x[i]) > 1e-10 {
			t.Fatalf("tridiag solve wrong at %d: %g vs %g", i, d[i], x[i])
		}
	}
}

func TestIsPow2(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want bool
	}{{1, true}, {2, true}, {1024, true}, {0, false}, {-4, false}, {3, false}, {12, false}} {
		if IsPow2(tc.n) != tc.want {
			t.Fatalf("IsPow2(%d) = %v", tc.n, !tc.want)
		}
	}
}
