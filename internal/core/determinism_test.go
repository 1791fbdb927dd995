package core_test

import (
	"runtime"
	"testing"
	"time"

	"subcouple/internal/bem"
	"subcouple/internal/core"
	"subcouple/internal/experiments"
	"subcouple/internal/geom"
	"subcouple/internal/metrics"
	"subcouple/internal/obs"
	"subcouple/internal/solver"
	"subcouple/internal/sparse"
	"subcouple/internal/substrate"
)

// sameMatrix reports whether two CSR matrices are bitwise identical.
func sameMatrix(t *testing.T, what string, a, b *sparse.Matrix) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: one matrix nil, the other not", what)
	}
	if a == nil {
		return
	}
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", what, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if len(a.Val) != len(b.Val) {
		t.Fatalf("%s: nnz %d vs %d", what, len(a.Val), len(b.Val))
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			t.Fatalf("%s: RowPtr[%d] %d vs %d", what, i, a.RowPtr[i], b.RowPtr[i])
		}
	}
	for k := range a.Val {
		if a.ColIdx[k] != b.ColIdx[k] {
			t.Fatalf("%s: ColIdx[%d] %d vs %d", what, k, a.ColIdx[k], b.ColIdx[k])
		}
		if a.Val[k] != b.Val[k] {
			t.Fatalf("%s: Val[%d] %v vs %v (not bitwise identical)", what, k, a.Val[k], b.Val[k])
		}
	}
}

// TestExtractionDeterministicAcrossWorkers is the parallel engine's core
// guarantee: for any worker count the extracted representation — Q, Gw,
// Gwt, the solve count, and Apply outputs — is bitwise identical to the
// fully serial run.
func TestExtractionDeterministicAcrossWorkers(t *testing.T) {
	layouts := []struct {
		name string
		raw  *geom.Layout
	}{
		{"regular", geom.RegularGrid(64, 64, 8, 8, 4)},
		{"alternating", geom.AlternatingGrid(64, 64, 8, 8, 1, 7)},
	}
	workerCounts := []int{1, 2, runtime.NumCPU()}
	for _, lc := range layouts {
		layout, maxLevel := core.Prepare(lc.raw, 4)
		g := experiments.SyntheticG(layout)
		probe := make([]float64, layout.N())
		for i := range probe {
			probe[i] = float64(i%7) - 3
		}
		for _, method := range []core.Method{core.Wavelet, core.LowRank} {
			var ref *core.Result
			var refApply []float64
			for _, w := range workerCounts {
				res, err := core.Extract(solver.NewDense(g), layout, core.Options{
					Method: method, MaxLevel: maxLevel, ThresholdFactor: 6, Workers: w,
				})
				if err != nil {
					t.Fatalf("%s/%v workers=%d: %v", lc.name, method, w, err)
				}
				app := res.Apply(probe)
				if ref == nil {
					ref, refApply = res, app
					continue
				}
				what := lc.name + "/" + method.String()
				if res.Solves != ref.Solves {
					t.Errorf("%s workers=%d: %d solves vs %d serial", what, w, res.Solves, ref.Solves)
				}
				sameMatrix(t, what+" Gw", ref.Gw, res.Gw)
				sameMatrix(t, what+" Gwt", ref.Gwt, res.Gwt)
				sameMatrix(t, what+" Q", ref.Q(), res.Q())
				for i := range app {
					if app[i] != refApply[i] {
						t.Fatalf("%s workers=%d: Apply[%d] = %v vs %v", what, w, i, app[i], refApply[i])
					}
				}
			}
		}
	}
}

// TestBatchMetricsDoNotChangeOutputs is the observability layer's
// guarantee: extraction with a live obs.Metrics is bitwise identical — Q,
// Gw, Gwt, solve count — to a nil-registry run on the 256-contact benchmark
// layout, and costs little enough that the instrumented run stays within a
// generous wall-time factor of the bare one (a loose guard, since single
// runs on a shared box are noisy).
func TestBatchMetricsDoNotChangeOutputs(t *testing.T) {
	raw := geom.AlternatingGrid(64, 64, 16, 16, 1, 3) // 256 contacts
	layout, maxLevel := core.Prepare(raw, 4)
	g := experiments.SyntheticG(layout)
	for _, method := range []core.Method{core.Wavelet, core.LowRank} {
		opt := core.Options{Method: method, MaxLevel: maxLevel, ThresholdFactor: 6}
		run := func(ms *obs.Metrics) (*core.Result, time.Duration) {
			o := opt
			o.Metrics = ms
			start := time.Now()
			res, err := core.Extract(solver.NewDense(g), layout, o)
			if err != nil {
				t.Fatalf("%v: %v", method, err)
			}
			return res, time.Since(start)
		}
		bare, bareT := run(nil)
		ms := obs.NewMetrics()
		live, liveT := run(ms)

		what := method.String()
		if live.Solves != bare.Solves {
			t.Errorf("%s: %d solves with metrics vs %d without", what, live.Solves, bare.Solves)
		}
		sameMatrix(t, what+" Gw", bare.Gw, live.Gw)
		sameMatrix(t, what+" Gwt", bare.Gwt, live.Gwt)
		sameMatrix(t, what+" Q", bare.Q(), live.Q())

		s, _ := ms.Report()
		if len(s.Phases) == 0 {
			t.Errorf("%s: registry saw no phases", what)
		}
		if got := s.Counters["solver/solves"]; got != int64(bare.Solves) {
			t.Errorf("%s: registry counted %d solves, extraction reports %d", what, got, bare.Solves)
		}
		if liveT > 2*bareT+50*time.Millisecond {
			t.Errorf("%s: instrumented run took %v vs %v bare — recording overhead too high", what, liveT, bareT)
		}
	}
}

// TestTracerDoesNotChangeOutputs extends the observability guarantee to
// span tracing: extraction with a live tracer (and registry) is bitwise
// identical to an untraced run for both methods and a parallel worker
// count, and the trace actually covers the run — spans on the main track
// plus at least one worker track, with no spans silently lost.
func TestTracerDoesNotChangeOutputs(t *testing.T) {
	raw := geom.AlternatingGrid(64, 64, 16, 16, 1, 3) // 256 contacts
	layout, maxLevel := core.Prepare(raw, 4)
	g := experiments.SyntheticG(layout)
	for _, method := range []core.Method{core.Wavelet, core.LowRank} {
		opt := core.Options{Method: method, MaxLevel: maxLevel, ThresholdFactor: 6, Workers: 4}
		run := func(tr *obs.Tracer) *core.Result {
			o := opt
			o.Tracer = tr
			if tr != nil {
				o.Metrics = obs.NewMetrics()
			}
			res, err := core.Extract(solver.NewDense(g), layout, o)
			if err != nil {
				t.Fatalf("%v: %v", method, err)
			}
			return res
		}
		bare := run(nil)
		tr := obs.NewTracer(0)
		traced := run(tr)

		what := method.String()
		if traced.Solves != bare.Solves {
			t.Errorf("%s: %d solves with tracer vs %d without", what, traced.Solves, bare.Solves)
		}
		sameMatrix(t, what+" Gw", bare.Gw, traced.Gw)
		sameMatrix(t, what+" Gwt", bare.Gwt, traced.Gwt)
		sameMatrix(t, what+" Q", bare.Q(), traced.Q())

		if tr.SpanCount() == 0 {
			t.Errorf("%s: tracer saw no spans", what)
		}
		if tr.Dropped() != 0 {
			t.Errorf("%s: %d spans dropped with the default buffer", what, tr.Dropped())
		}
		tracks := tr.Tracks()
		if len(tracks) < 2 || tracks[0] != 0 {
			t.Errorf("%s: tracks = %v, want main plus at least one worker track", what, tracks)
		}
	}
}

// TestApplyReconstructionProperties checks that the sparsified operator
// Q·Gw·Qᵀ built from a real (eigenfunction) solver still behaves like a
// conductance matrix: symmetric, positive diagonal, non-positive
// off-diagonals, non-negative column sums — within the method's
// approximation error.
func TestApplyReconstructionProperties(t *testing.T) {
	prof := substrate.Uniform(16, 8, 1, true)
	raw := geom.RegularGrid(16, 16, 4, 4, 2)
	layout, maxLevel := core.Prepare(raw, 4)
	s, err := bem.New(prof, layout, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []core.Method{core.Wavelet, core.LowRank} {
		res, err := core.Extract(s, layout, core.Options{
			Method: method, MaxLevel: maxLevel, ThresholdFactor: 6,
		})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if err := metrics.CheckConductance(res.N(), res.Column, false, 0.02); err != nil {
			t.Errorf("%v reconstruction: %v", method, err)
		}
		if err := metrics.CheckConductance(res.N(), res.ColumnThresholded, false, 0.1); err != nil {
			t.Errorf("%v thresholded reconstruction: %v", method, err)
		}
	}
}
