//go:build amd64 && !amd64.v3

// The constants below are exact bit patterns, so this file builds only where
// the Go compiler never fuses a multiply and an add into one FMA: on amd64
// below GOAMD64=v3. Elsewhere a fused kernel may legitimately round
// differently.

package model_test

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"subcouple/internal/core"
	"subcouple/internal/model"
)

// goldenBits are the served bits of extract256's models, captured once and
// pinned across commits: a kernel refactor that changes any served value,
// for any column, fails here even if every in-tree path changed alike.
//
// artifact hashes the encoded model itself, so it also pins what the
// operator columns cannot see: the CSR and CSC index arrays, which exact
// zeros were dropped, and the presentation order.
var goldenBits = []struct {
	method                      core.Method
	fingerprint                 uint64
	columns, thresholded, qcols uint64
	artifact                    uint64
}{
	{core.LowRank, 0x5bb6e60bc6c4926a, 0x13011d282e860cc5, 0xa42df90e39ae4edc, 0x228486b93772ed08, 0xe64e120833eb2dc8},
	{core.Wavelet, 0x008b803b90e0fc41, 0x0523bc53edc19e26, 0xc9d10de48b1866e2, 0x32c20434ade322cb, 0xcd8cc560ecdab1df},
}

// mixBits feeds the exact bit patterns of v into h.
func mixBits(h hash.Hash64, v []float64) {
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

// TestGoldenServedBits pins the fingerprint, every operator column (plain
// and thresholded), every native Q column and the encoded artifact of the
// low-rank (QColumns) and wavelet (QFactored) models against constants.
func TestGoldenServedBits(t *testing.T) {
	for _, g := range goldenBits {
		t.Run(g.method.String(), func(t *testing.T) {
			res := extract256(t, g.method)
			m := res.Model()
			cols, thr, qcols := fnv.New64a(), fnv.New64a(), fnv.New64a()
			eng := model.NewEngine(m)
			q := make([]float64, m.N)
			for j := 0; j < m.N; j++ {
				mixBits(cols, res.Column(j))
				mixBits(thr, res.ColumnThresholded(j))
				eng.QColumnInto(q, j)
				mixBits(qcols, q)
			}
			data, err := model.Encode(m)
			if err != nil {
				t.Fatal(err)
			}
			artifact := fnv.New64a()
			artifact.Write(data)
			for _, c := range []struct {
				what      string
				got, want uint64
			}{
				{"FingerprintOf", model.FingerprintOf(m, 1), g.fingerprint},
				{"columns", cols.Sum64(), g.columns},
				{"thresholded columns", thr.Sum64(), g.thresholded},
				{"Q columns", qcols.Sum64(), g.qcols},
				{"artifact", artifact.Sum64(), g.artifact},
			} {
				if c.got != c.want {
					t.Errorf("%s hash %#016x, want %#016x", c.what, c.got, c.want)
				}
			}
		})
	}
}
