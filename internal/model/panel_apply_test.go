package model_test

import (
	"fmt"
	"runtime"
	"testing"

	"subcouple/internal/core"
	"subcouple/internal/model"
	"subcouple/internal/obs"
)

// packPanel lays xs out column-major (column c at p[c*n:(c+1)*n]).
func packPanel(n int, xs [][]float64) []float64 {
	p := make([]float64, n*len(xs))
	for c, x := range xs {
		copy(p[c*n:(c+1)*n], x)
	}
	return p
}

// TestApplyPanelBitwise is the panel kernels' central contract: every column
// of ApplyPanelInto is bitwise identical to ApplyInto on that column (and,
// thresholded, to the width-1 panel, which runs the same single-RHS kernel
// over Gwt), for both Q representations at every worker count — the batched
// serving path must be invisible in the response bytes.
func TestApplyPanelBitwise(t *testing.T) {
	for _, method := range []core.Method{core.Wavelet, core.LowRank} {
		t.Run(method.String(), func(t *testing.T) {
			res := extract256(t, method)
			m := res.Model()
			n := m.N
			eng := model.NewEngine(m)
			workerCounts := []int{1, 2, runtime.NumCPU()}
			for _, k := range []int{1, 2, 5, 16} {
				xs := make([][]float64, k)
				singles := make([][]float64, k)
				singlesT := make([][]float64, k)
				for i := range xs {
					xs[i] = probeVec(n, i+1)
					singles[i] = make([]float64, n)
					singlesT[i] = make([]float64, n)
					eng.ApplyInto(singles[i], xs[i])
					eng.ApplyPanelInto(singlesT[i], xs[i], 1, 1, true)
				}
				x := packPanel(n, xs)
				for _, workers := range workerCounts {
					dst := make([]float64, n*k)
					eng.ApplyPanelInto(dst, x, k, workers, false)
					for c := 0; c < k; c++ {
						bitwiseEqual(t, fmt.Sprintf("k=%d workers=%d ApplyPanelInto col %d", k, workers, c),
							dst[c*n:(c+1)*n], singles[c])
					}
					eng.ApplyPanelInto(dst, x, k, workers, true)
					for c := 0; c < k; c++ {
						bitwiseEqual(t, fmt.Sprintf("k=%d workers=%d thresholded ApplyPanelInto col %d", k, workers, c),
							dst[c*n:(c+1)*n], singlesT[c])
					}
				}
			}
		})
	}
}

// TestApplyPanelValidates pins the panel argument checks: bad widths,
// mis-sized panels, the aliasing contract and a missing Gwt all panic up
// front, on the caller, with the method and sizes named — at workers > 1 a
// panic inside a pool worker would kill the process instead — and a
// recovered panic leaves the engine usable.
func TestApplyPanelValidates(t *testing.T) {
	res := extract256(t, core.LowRank)
	eng := model.NewEngine(res.Model())
	n := res.N()
	x := packPanel(n, [][]float64{probeVec(n, 1), probeVec(n, 2)})
	dst := make([]float64, 2*n)

	for _, workers := range []int{1, 4} {
		expectPanic(t, []string{"ApplyPanelInto", "width 0"},
			func() { eng.ApplyPanelInto(dst[:0], x[:0], 0, workers, false) })
		expectPanic(t, []string{"ApplyPanelInto", "x", fmt.Sprint(2*n - 1)},
			func() { eng.ApplyPanelInto(dst, x[:2*n-1], 2, workers, false) })
		expectPanic(t, []string{"ApplyPanelInto", "dst", fmt.Sprint(n)},
			func() { eng.ApplyPanelInto(dst[:n], x, 2, workers, false) })
		expectPanic(t, []string{"ApplyPanelInto", "aliases"},
			func() { eng.ApplyPanelInto(x, x, 2, workers, false) })
		expectPanic(t, []string{"ApplyPanelInto", "aliases"},
			func() { eng.ApplyPanelInto(x, x, 2, workers, true) })
	}

	noGwt := *res.Model()
	noGwt.Gwt = nil
	bare := model.NewEngine(&noGwt)
	expectPanic(t, []string{"no thresholded representation"},
		func() { bare.ApplyPanelInto(dst, x, 2, 1, true) })
	expectPanic(t, []string{"no thresholded representation"},
		func() { bare.ColumnInto(dst[:n], 0, true) })

	eng.ApplyPanelInto(dst, x, 2, 1, false) // still serviceable
	bare.ApplyPanelInto(dst, x, 2, 1, false)
}

// TestApplyAliasPanics is the regression test for the unenforced "dst may
// not alias x" contract: aliasing used to silently corrupt the result (the
// kernels overwrite dst while still reading x); it must now panic with a
// clear message on every apply entry point, leaving the engine usable.
func TestApplyAliasPanics(t *testing.T) {
	res := extract256(t, core.LowRank)
	eng := model.NewEngine(res.Model())
	n := res.N()
	x := probeVec(n, 1)

	expectPanic(t, []string{"ApplyInto", "aliases"}, func() { eng.ApplyInto(x, x) })
	expectPanic(t, []string{"ApplyPanelInto", "aliases"},
		func() { eng.ApplyPanelInto(x, x, 1, 1, true) })

	// Repeated input columns are fine (reads never conflict).
	dst := make([]float64, 2*n)
	eng.ApplyPanelInto(dst, packPanel(n, [][]float64{x, x}), 2, 1, false)
	bitwiseEqual(t, "repeated inputs", dst[:n], dst[n:])
}

// TestColumnPanicLeavesUnitClean is the regression test for the dirty
// unit-vector bug: ColumnInto armed sc.unit[j] = 1 and reset it only on the
// non-panic path, so a recovered panic mid-apply (serving daemons recover)
// left the slot set and every later column silently computed
// G·(e_j + e_col) instead of G·e_col. The reset must survive a panic.
func TestColumnPanicLeavesUnitClean(t *testing.T) {
	for _, method := range []core.Method{core.Wavelet, core.LowRank} {
		t.Run(method.String(), func(t *testing.T) {
			res := extract256(t, method)
			// Deep-copy so the corruption can't leak into the cached model.
			data, err := model.Encode(res.Model())
			if err != nil {
				t.Fatal(err)
			}
			m, err := model.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			n := m.N
			eng := model.NewEngine(m)
			ref := make([]float64, n)
			refT := make([]float64, n)
			refQ := make([]float64, n)
			eng.ColumnInto(ref, 5, false)
			eng.ColumnInto(refT, 5, true)
			eng.QColumnInto(refQ, 5)
			dst := make([]float64, n)

			// Corrupt Gw so the apply panics after the unit vector is armed,
			// recover, heal, and demand the next column bitwise.
			saved := m.Gw.ColIdx[0]
			m.Gw.ColIdx[0] = -1
			expectPanic(t, []string{"index out of range"}, func() { eng.ColumnInto(dst, 3, false) })
			m.Gw.ColIdx[0] = saved
			eng.ColumnInto(dst, 5, false)
			bitwiseEqual(t, "ColumnInto after recovered panic", dst, ref)

			savedT := m.Gwt.ColIdx[0]
			m.Gwt.ColIdx[0] = -1
			expectPanic(t, []string{"index out of range"}, func() { eng.ColumnInto(dst, 3, true) })
			m.Gwt.ColIdx[0] = savedT
			eng.ColumnInto(dst, 5, true)
			bitwiseEqual(t, "thresholded ColumnInto after recovered panic", dst, refT)

			// QColumnInto's factored branch arms the unit vector too: corrupt
			// a block output coordinate so the forward chain panics mid-walk.
			if m.Kind == model.QFactored {
				blk := &m.Levels[0].Blocks[0]
				savedOut := blk.Out[0]
				blk.Out[0] = n + 1000
				expectPanic(t, []string{"index out of range"}, func() { eng.QColumnInto(dst, 3) })
				blk.Out[0] = savedOut
				eng.QColumnInto(dst, 5)
				bitwiseEqual(t, "QColumnInto after recovered panic", dst, refQ)
			}
		})
	}
}

// TestColumnRecorderKeys pins the column-path instrumentation: subserve's
// /column traffic used to be invisible in run reports because the column
// applies recorded no phase or counter. Every column entry point must now
// show up under the model/column phase and model/columns counter, and the
// panel path under model/apply_panel + model/panel_cols.
func TestColumnRecorderKeys(t *testing.T) {
	res := extract256(t, core.LowRank)
	eng := model.NewEngine(res.Model())
	rec := obs.NewRecorder()
	eng.SetObs(rec, nil)
	n := res.N()
	dst := make([]float64, n)
	eng.ColumnInto(dst, 0, false)
	eng.ColumnInto(dst, 1, true)
	eng.QColumnInto(dst, 2)
	panel := packPanel(n, [][]float64{probeVec(n, 1), probeVec(n, 2)})
	out := make([]float64, 2*n)
	eng.ApplyPanelInto(out, panel, 2, 1, false)

	snap := rec.Snapshot()
	phases := map[string]int64{}
	for _, p := range snap.Phases {
		phases[p.Name] = p.Calls
	}
	if phases["model/column"] != 3 {
		t.Fatalf("model/column phase calls = %d, want 3 (phases: %v)", phases["model/column"], snap.Phases)
	}
	if snap.Counters["model/columns"] != 3 {
		t.Fatalf("model/columns counter = %d, want 3", snap.Counters["model/columns"])
	}
	if phases["model/apply_panel"] != 1 || snap.Counters["model/panel_cols"] != 2 {
		t.Fatalf("panel instrumentation missing: phases %v counters %v", snap.Phases, snap.Counters)
	}
}

// TestPanelSteadyStateAllocs extends the zero-allocation contract to the
// panel path: once the scratch is warm, ApplyPanelInto allocates nothing per
// call, thresholded or not (workers=1 — the inline par.Do path — with no
// recorder, like the serving daemon's hot loop).
func TestPanelSteadyStateAllocs(t *testing.T) {
	res := extract256(t, core.Wavelet)
	eng := model.NewEngine(res.Model())
	n := res.N()
	const k = 16
	xs := make([][]float64, k)
	for i := range xs {
		xs[i] = probeVec(n, i)
	}
	x := packPanel(n, xs)
	dst := make([]float64, n*k)

	for _, thresholded := range []bool{false, true} {
		eng.ApplyPanelInto(dst, x, k, 1, thresholded) // warm scratch
		if avg := testing.AllocsPerRun(20, func() { eng.ApplyPanelInto(dst, x, k, 1, thresholded) }); avg != 0 {
			t.Fatalf("ApplyPanelInto(thresholded=%v) allocates %v per call in steady state, want 0", thresholded, avg)
		}
	}
}
