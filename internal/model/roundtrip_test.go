package model_test

import (
	"bytes"
	"fmt"
	"testing"

	"subcouple/internal/core"
	"subcouple/internal/experiments"
	"subcouple/internal/geom"
	"subcouple/internal/model"
	"subcouple/internal/solver"
)

// extract256 runs a full extraction on the 256-contact alternating example
// (cached per method across tests in this package).
func extract256(t testing.TB, method core.Method) *core.Result {
	t.Helper()
	if res := extracted[method]; res != nil {
		return res
	}
	raw := geom.AlternatingGrid(64, 64, 16, 16, 1, 3) // 256 contacts
	layout, maxLevel := core.Prepare(raw, 4)
	g := experiments.SyntheticG(layout)
	res, err := core.Extract(solver.NewDense(g), layout, core.Options{
		Method: method, MaxLevel: maxLevel, ThresholdFactor: 6,
	})
	if err != nil {
		t.Fatalf("%v: %v", method, err)
	}
	extracted[method] = res
	return res
}

var extracted = map[core.Method]*core.Result{}

func probeVec(n, shift int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = float64((i*31+shift*7)%17) - 8
	}
	return x
}

func bitwiseEqual(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s[%d]: %v vs %v (not bitwise identical)", what, i, a[i], b[i])
		}
	}
}

// TestRoundTripBitwise is the central serving guarantee: an artifact that went
// through Encode→Decode applies bitwise identically to the in-memory Result it
// came from, for both Q representations, single-RHS and panel, thresholded
// and not, at any worker count.
func TestRoundTripBitwise(t *testing.T) {
	for _, method := range []core.Method{core.Wavelet, core.LowRank} {
		t.Run(method.String(), func(t *testing.T) {
			res := extract256(t, method)
			m := res.Model()

			data, err := model.Encode(m)
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := model.Decode(data)
			if err != nil {
				t.Fatal(err)
			}

			if decoded.N != m.N || decoded.Method != m.Method || decoded.Solves != m.Solves ||
				decoded.Kind != m.Kind {
				t.Fatalf("header fields changed in round trip: %+v", decoded)
			}
			if fmt.Sprint(decoded.Meta) != fmt.Sprint(m.Meta) {
				t.Fatalf("meta changed: %v vs %v", decoded.Meta, m.Meta)
			}
			bitwiseEqual(t, "Gw.Val", decoded.Gw.Val, m.Gw.Val)
			bitwiseEqual(t, "Gwt.Val", decoded.Gwt.Val, m.Gwt.Val)

			// Deterministic encoding: a decoded model re-encodes byte for byte.
			data2, err := model.Encode(decoded)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, data2) {
				t.Fatal("re-encoded artifact differs byte-wise from original")
			}

			eng := model.NewEngine(decoded)
			x := probeVec(m.N, 0)
			want := res.Apply(x)
			got := make([]float64, m.N)
			eng.ApplyInto(got, x)
			bitwiseEqual(t, "Apply", got, want)

			wantT := res.ApplyThresholded(x)
			eng.ApplyPanelInto(got, x, 1, 1, true)
			bitwiseEqual(t, "ApplyThresholded", got, wantT)

			for _, j := range []int{0, 7, m.N - 1} {
				wantCol := res.Column(j)
				eng.ColumnInto(got, j, false)
				bitwiseEqual(t, fmt.Sprintf("Column(%d)", j), got, wantCol)
				wantCol = res.ColumnThresholded(j)
				eng.ColumnInto(got, j, true)
				bitwiseEqual(t, fmt.Sprintf("ColumnThresholded(%d)", j), got, wantCol)
			}

			// Panel applies must match the single-RHS path bitwise for any
			// worker count.
			xs := [][]float64{probeVec(m.N, 1), probeVec(m.N, 2), probeVec(m.N, 3), probeVec(m.N, 4)}
			panel := make([]float64, len(xs)*m.N)
			for _, workers := range []int{1, 4} {
				eng.ApplyPanelInto(panel, packPanel(m.N, xs), len(xs), workers, false)
				for i, xi := range xs {
					bitwiseEqual(t, fmt.Sprintf("ApplyPanelInto[%d] workers=%d", i, workers),
						panel[i*m.N:(i+1)*m.N], res.Apply(xi))
				}
			}
		})
	}
}

// TestLoadedResultServesWithoutSolves pins the "extract once, serve forever"
// contract end to end through core.FromModel.
func TestLoadedResultServesWithoutSolves(t *testing.T) {
	res := extract256(t, core.LowRank)
	data, err := model.Encode(res.Model())
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := model.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := core.FromModel(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Solves != 0 {
		t.Fatalf("load path spent %d solves, want 0", loaded.Solves)
	}
	if loaded.Model().Solves != res.Solves {
		t.Fatalf("extraction solve count lost: %d vs %d", loaded.Model().Solves, res.Solves)
	}
	x := probeVec(res.N(), 5)
	bitwiseEqual(t, "FromModel Apply", loaded.Apply(x), res.Apply(x))
}

// TestQMatchesEngineColumns checks that the materialized Q and the engine's
// native column applies agree, for both stored representations.
func TestQMatchesEngineColumns(t *testing.T) {
	for _, method := range []core.Method{core.Wavelet, core.LowRank} {
		res := extract256(t, method)
		m := res.Model()
		q := m.Q()
		eng := model.NewEngine(m)
		col := make([]float64, m.N)
		for newIdx, oldIdx := range m.Order {
			eng.QColumnInto(col, oldIdx)
			for r := 0; r < m.N; r++ {
				if got := q.At(r, newIdx); got != col[r] {
					t.Fatalf("%v: Q[%d,%d] = %v, engine column says %v", method, r, newIdx, got, col[r])
				}
			}
		}
	}
}
