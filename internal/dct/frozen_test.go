package dct

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// This file freezes the original allocating transforms (one fresh slice and
// fresh cos/sin values per 1-D call, twiddles rebuilt per FFT stage) and pins
// the package's 2-D transforms to them bit for bit. The substrate solvers'
// answers, and with them every extracted model, depend on these exact bits,
// so any restructuring of the transforms must keep this test passing
// unchanged.

func frozenFFT(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	if !IsPow2(n) {
		panic(fmt.Sprintf("dct: FFT length %d is not a power of two", n))
	}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		ang := sign * 2 * math.Pi / float64(size)
		wstep := complex(math.Cos(ang), math.Sin(ang))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wstep
			}
		}
	}
}

func frozenIFFT(x []complex128) {
	frozenFFT(x, true)
	n := float64(len(x))
	for i := range x {
		x[i] = complex(real(x[i])/n, imag(x[i])/n)
	}
}

func frozenDCT2(x []float64) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n == 1 {
		return []float64{x[0]}
	}
	if !IsPow2(n) {
		return dct2Direct(x)
	}
	v := make([]complex128, n)
	for i := 0; i < n/2; i++ {
		v[i] = complex(x[2*i], 0)
		v[n-1-i] = complex(x[2*i+1], 0)
	}
	frozenFFT(v, false)
	out := make([]float64, n)
	for k := 0; k < n; k++ {
		theta := math.Pi * float64(k) / float64(2*n)
		out[k] = real(v[k])*math.Cos(theta) + imag(v[k])*math.Sin(theta)
	}
	return out
}

func frozenDCT3(x []float64) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n == 1 {
		return []float64{x[0] / 2}
	}
	if !IsPow2(n) {
		return dct3Direct(x)
	}
	v := make([]complex128, n)
	v[0] = complex(x[0], 0)
	for k := 1; k < n; k++ {
		theta := math.Pi * float64(k) / float64(2*n)
		e := complex(math.Cos(theta), math.Sin(theta))
		v[k] = e * complex(x[k], -x[n-k])
	}
	frozenIFFT(v)
	out := make([]float64, n)
	half := float64(n) / 2
	for i := 0; i < n/2; i++ {
		out[2*i] = real(v[i]) * half
		out[2*i+1] = real(v[n-1-i]) * half
	}
	return out
}

func frozenTransform2D(a []float64, nx, ny int, f func([]float64) []float64) {
	for i := 0; i < nx; i++ {
		copy(a[i*ny:(i+1)*ny], f(a[i*ny:(i+1)*ny]))
	}
	col := make([]float64, nx)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			col[i] = a[i*ny+j]
		}
		out := f(col)
		for i := 0; i < nx; i++ {
			a[i*ny+j] = out[i]
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

// checkFrozen2D runs DCT2D2, then DCT2D3 on its output, then DCT2D3 on the
// raw field, each against the frozen transforms, and fails on the first
// entry whose bits differ.
func checkFrozen2D(t *testing.T, rng *rand.Rand, nx, ny int) {
	t.Helper()
	a := make([]float64, nx*ny)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for _, step := range []struct {
		name   string
		in     []float64
		got    func([]float64, int, int)
		frozen func([]float64) []float64
	}{
		{"DCT2D2", a, DCT2D2, frozenDCT2},
		{"DCT2D3 of the spectrum", nil, DCT2D3, frozenDCT3},
		{"DCT2D3", a, DCT2D3, frozenDCT3},
	} {
		in := step.in
		if in == nil {
			// The solver's order: the inverse runs on the forward's output.
			in = append([]float64(nil), a...)
			frozenTransform2D(in, nx, ny, frozenDCT2)
		}
		got := append([]float64(nil), in...)
		want := append([]float64(nil), in...)
		step.got(got, nx, ny)
		frozenTransform2D(want, nx, ny, step.frozen)
		if i := sameBits(got, want); i >= 0 {
			t.Fatalf("%dx%d %s: entry %d is %x, frozen %x", nx, ny, step.name, i,
				math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

func TestTransformsMatchFrozenBits(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, sz := range [][2]int{
		{1, 1}, {2, 2}, {8, 16}, {16, 8}, {24, 24}, {64, 64},
		{128, 128}, {256, 256}, {12, 20}, {3, 5},
	} {
		checkFrozen2D(t, rng, sz[0], sz[1])
	}
}

// TestTransforms1DMatchFrozenBits pins the 1-D transforms at every length up
// to 256 through the 2-D entry points: a 1×n field runs one length-n row
// transform and n length-1 column transforms, an n×1 field the reverse.
func TestTransforms1DMatchFrozenBits(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for n := 1; n <= 256; n++ {
		checkFrozen2D(t, rng, 1, n)
		checkFrozen2D(t, rng, n, 1)
	}
}
