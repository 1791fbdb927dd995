package model_test

import (
	"fmt"
	"runtime"
	"testing"

	"subcouple/internal/core"
	"subcouple/internal/model"
	"subcouple/internal/obs"
)

// The Apply benchmarks pair the engine's scratch-buffered path against the
// allocating Model.Apply convenience path (the ablation baseline): the engine
// must show zero steady-state allocations.

func BenchmarkApplyInto(b *testing.B) {
	for _, method := range []core.Method{core.Wavelet, core.LowRank} {
		res := extract256(b, method)
		m := res.Model()
		eng := model.NewEngine(m)
		x := probeVec(m.N, 0)
		out := make([]float64, m.N)
		b.Run(method.String(), func(b *testing.B) {
			eng.ApplyInto(out, x) // warm the scratch before counting
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.ApplyInto(out, x)
			}
		})
		b.Run(method.String()+"/alloc-baseline", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = m.Apply(x)
			}
		})
	}
}

func BenchmarkColumnInto(b *testing.B) {
	for _, method := range []core.Method{core.Wavelet, core.LowRank} {
		res := extract256(b, method)
		eng := res.Engine()
		out := make([]float64, res.N())
		b.Run(method.String(), func(b *testing.B) {
			eng.ColumnInto(out, 0, false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.ColumnInto(out, i%res.N(), false)
			}
		})
	}
}

func BenchmarkApplyPanel(b *testing.B) {
	const rhs = 16
	for _, method := range []core.Method{core.Wavelet, core.LowRank} {
		res := extract256(b, method)
		m := res.Model()
		eng := model.NewEngine(m)
		xs := make([][]float64, rhs)
		for i := range xs {
			xs[i] = probeVec(m.N, i)
		}
		x, dst := packPanel(m.N, xs), make([]float64, rhs*m.N)
		for _, workers := range []int{1, runtime.NumCPU()} {
			b.Run(fmt.Sprintf("%s/workers=%d", method, workers), func(b *testing.B) {
				eng.ApplyPanelInto(dst, x, rhs, workers, false) // warm per-worker scratch pool
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.ApplyPanelInto(dst, x, rhs, workers, false)
				}
			})
		}
	}
}

// TestEngineSteadyStateAllocs enforces the zero-allocation contract as a test
// (benchmarks alone would let a regression slip through CI).
func TestEngineSteadyStateAllocs(t *testing.T) {
	for _, method := range []core.Method{core.Wavelet, core.LowRank} {
		m := extract256(t, method).Model()
		eng := model.NewEngine(m)
		x := probeVec(m.N, 0)
		out := make([]float64, m.N)
		eng.ApplyInto(out, x) // warm scratch
		if avg := testing.AllocsPerRun(20, func() { eng.ApplyInto(out, x) }); avg != 0 {
			t.Errorf("%v: ApplyInto allocates %.1f objects per call in steady state", method, avg)
		}
		eng.ColumnInto(out, 0, false)
		if avg := testing.AllocsPerRun(20, func() { eng.ColumnInto(out, 1, false) }); avg != 0 {
			t.Errorf("%v: ColumnInto allocates %.1f objects per call in steady state", method, avg)
		}
		if avg := testing.AllocsPerRun(20, func() { eng.ColumnInto(out, 2, true) }); avg != 0 {
			t.Errorf("%v: thresholded ColumnInto allocates %.1f objects per call in steady state", method, avg)
		}
	}
}

// TestEngineMetricsZeroAlloc extends the zero-allocation contract to an
// engine with a live metrics registry attached: recording kernel durations
// is atomics-only, so the hot paths must stay allocation-free with metrics
// on (the serving pool attaches them to every engine).
func TestEngineMetricsZeroAlloc(t *testing.T) {
	for _, method := range []core.Method{core.Wavelet, core.LowRank} {
		m := extract256(t, method).Model()
		eng := model.NewEngine(m)
		eng.SetMetrics(obs.NewMetrics())
		x := probeVec(m.N, 0)
		out := make([]float64, m.N)
		eng.ApplyInto(out, x) // warm scratch
		if avg := testing.AllocsPerRun(20, func() { eng.ApplyInto(out, x) }); avg != 0 {
			t.Errorf("%v: ApplyInto with metrics allocates %.1f objects per call", method, avg)
		}
		eng.ColumnInto(out, 0, false)
		if avg := testing.AllocsPerRun(20, func() { eng.ColumnInto(out, 1, false) }); avg != 0 {
			t.Errorf("%v: ColumnInto with metrics allocates %.1f objects per call", method, avg)
		}
		const k = 4
		px, py := make([]float64, k*m.N), make([]float64, k*m.N)
		for c := 0; c < k; c++ {
			copy(px[c*m.N:], probeVec(m.N, c))
		}
		eng.ApplyPanelInto(py, px, k, 1, false) // warm panel scratch
		if avg := testing.AllocsPerRun(20, func() { eng.ApplyPanelInto(py, px, k, 1, false) }); avg != 0 {
			t.Errorf("%v: ApplyPanelInto with metrics allocates %.1f objects per call", method, avg)
		}
	}
}
