package obs

import "testing"

// The nil-receiver no-op claim in the package docs is measured here: the
// "nil" sub-benchmarks are the cost instrumented code pays when
// observability is off, the "live" ones the cost when it is on.

// BenchmarkBatchRecordOverhead times five batch records, each through a
// per-call lookup — the cold-site pattern; hot sites hold their handles and
// pay only BenchmarkHistogramObserve.
func BenchmarkBatchRecordOverhead(b *testing.B) {
	run := func(b *testing.B, m *Metrics) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Phase("p")()
			m.Event("c").Add(1)
			m.Observed("h").Observe(float64(i & 1023))
			m.Residual("res").Observe(1e-7)
			m.Rank("rank").Observe(float64(i & 31))
		}
	}
	b.Run("nil", func(b *testing.B) { run(b, nil) })
	b.Run("live", func(b *testing.B) { run(b, NewMetrics()) })
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewMetrics().Histogram("h", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i&1023) * 1e-6)
	}
}

func BenchmarkSpanOverhead(b *testing.B) {
	run := func(b *testing.B, tr *Tracer) {
		b.ReportAllocs()
		root := tr.Begin("root")
		for i := 0; i < b.N; i++ {
			root.ChildOn(1, "work").Arg("i", i).End()
		}
		root.End()
	}
	b.Run("nil", func(b *testing.B) { run(b, nil) })
	// Unbounded enough that End never hits the drop path during the run.
	b.Run("live", func(b *testing.B) { run(b, NewTracer(1<<30)) })
}
