// Package obs is the pipeline's zero-dependency observability layer: one
// registry of atomic counters, gauges and histograms (Metrics, metrics.go)
// that batch tools and serving daemons alike record into, per-event spans
// behind a *Tracer (trace.go), and the run-report schema (report.go). Every
// method is safe on a nil receiver and becomes a no-op, so instrumented code
// paths carry a registry and tracer unconditionally and pay near-zero
// overhead when observability is off (measured, not asserted: see
// BenchmarkBatchRecordOverhead and BenchmarkSpanOverhead).
// Recording never influences the computation it observes — extraction
// outputs are bitwise identical with a registry on or off (enforced by the
// core determinism suite).
//
// This file holds the batch side of the registry: six label-keyed families,
// one per run-report section, whose "name" label is the report key, and
// Report, which builds a run report's obs and numerics sections from them.
package obs

import "time"

// The batch families. Each series carries one label, name, whose value is
// the run-report key: subcouple_events_total{name="solver/solves"} is the
// report's obs.counters["solver/solves"].
const (
	familyPhase    = "subcouple_phase_seconds"
	familyEvents   = "subcouple_events_total"
	familyObserved = "subcouple_observed"
	familyRank     = "subcouple_rank"
	familyResidual = "subcouple_residual"
	familyDropped  = "subcouple_dropped_total"
)

// countBuckets is the ladder of the count histograms (iteration counts,
// batch sizes, ranks): a full power-of-two ladder, wide enough for all of
// them without aliasing anywhere along it. Values above the top bound land
// in the +Inf overflow bucket — never lost. The bucket layout is part of the
// report schema — do not reorder.
var countBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384}

// residualBuckets is the decade ladder of the residual histograms, from
// below every solver tolerance in use up to 1, a solve that did not reduce
// its residual at all.
var residualBuckets = []float64{1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1}

// Setter is implemented by solvers (fd, bem) and adapters (solver.Counting,
// solver.Parallel) that record into a registry and emit spans. Adapters
// forward the call down the chain, so core.Extract wires a whole chain with
// one SetObs call. Nil values record nothing.
type Setter interface {
	SetObs(*Metrics, *Tracer)
}

// nop is the shared no-op phase closer returned by a nil registry.
func nop() {}

// Phase starts a wall timer for the named phase and returns the function
// that stops it. Typical use:
//
//	defer ms.Phase("lowrank/sweep")()
//
// Phases may nest and repeat: each stop adds its inclusive wall time to
// subcouple_phase_seconds{name}, whose sample count is the phase's calls.
// The series is registered when the timer first stops, so a report lists
// phases in first-stop order.
func (m *Metrics) Phase(name string) func() {
	if m == nil {
		return nop
	}
	start := time.Now()
	return func() {
		d := time.Since(start).Seconds()
		m.Histogram(familyPhase, "batch phase wall time in seconds (inclusive; count = calls)", "name", name).Observe(d)
	}
}

// Event returns the counter subcouple_events_total{name}: the report's
// obs.counters entry (solves, batches, ...).
func (m *Metrics) Event(name string) *Counter {
	if m == nil {
		return nil
	}
	return m.Counter(familyEvents, "batch events by name", "name", name)
}

// Observed returns the count histogram subcouple_observed{name}: the
// report's obs.histograms entry (iteration counts, batch sizes, ...).
func (m *Metrics) Observed(name string) *Histogram {
	if m == nil {
		return nil
	}
	return m.HistogramBuckets(familyObserved, "batch count samples by name", countBuckets, "name", name)
}

// Rank returns the histogram subcouple_rank{name}: the report's
// numerics.ranks entry (the rank cut chosen per square).
func (m *Metrics) Rank(name string) *Histogram {
	if m == nil {
		return nil
	}
	return m.HistogramBuckets(familyRank, "chosen rank cuts by name", countBuckets, "name", name)
}

// Residual returns the histogram subcouple_residual{name}: the report's
// numerics.residuals entry (a solve's final relative residual).
func (m *Metrics) Residual(name string) *Histogram {
	if m == nil {
		return nil
	}
	return m.HistogramBuckets(familyResidual, "final relative residuals by name", residualBuckets, "name", name)
}

// Dropped returns the counter subcouple_dropped_total{name}: the report's
// numerics.drops entry (clipped spectra, spans that missed the trace
// buffer). Registering it lists it, so "nothing was dropped" shows as an
// explicit 0 in the report.
func (m *Metrics) Dropped(name string) *Counter {
	if m == nil {
		return nil
	}
	return m.Counter(familyDropped, "dropped or clipped items by name", "name", name)
}

// Report builds a run report's obs and numerics sections from the batch
// families, keyed by each series' name label: phases in first-stop order,
// event counters, count histograms, residual stats, rank histograms and
// drop counters. Histogram series with no samples are left out, since a
// report's histogram counts are positive; every registered drop counter is
// listed, zeros included. A nil registry returns an empty Snapshot and a nil
// Numerics; a live one always returns a non-nil Numerics, which is what
// tells a v2 report from a v1 one.
func (m *Metrics) Report() (Snapshot, *Numerics) {
	if m == nil {
		return Snapshot{}, nil
	}
	s := Snapshot{Counters: map[string]int64{}, Histograms: map[string]HistStat{}}
	n := &Numerics{Residuals: map[string]ValueStat{}, Ranks: map[string]HistStat{}, Drops: map[string]int64{}}
	m.mu.Lock()
	defer m.mu.Unlock()
	each := func(family string, fn func(name string, ser *series)) {
		if f := m.families[family]; f != nil {
			for _, ser := range f.series {
				fn(ser.labels[1], ser)
			}
		}
	}
	sampled := func(family string, fn func(name string, h HistogramSnapshot)) {
		each(family, func(name string, ser *series) {
			if h := ser.h.Snapshot(); h.Count > 0 {
				fn(name, h)
			}
		})
	}
	sampled(familyPhase, func(name string, h HistogramSnapshot) {
		s.Phases = append(s.Phases, PhaseStat{Name: name, Calls: h.Count, Seconds: h.Sum})
	})
	each(familyEvents, func(name string, ser *series) { s.Counters[name] = ser.ctr.Value() })
	sampled(familyObserved, func(name string, h HistogramSnapshot) { s.Histograms[name] = histStat(h) })
	sampled(familyRank, func(name string, h HistogramSnapshot) { n.Ranks[name] = histStat(h) })
	sampled(familyResidual, func(name string, h HistogramSnapshot) {
		n.Residuals[name] = ValueStat{Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max,
			Mean: h.Sum / float64(h.Count), Last: h.Last}
	})
	each(familyDropped, func(name string, ser *series) { n.Drops[name] = ser.ctr.Value() })
	return s, n
}

// histStat summarizes a sampled histogram, listing only occupied buckets.
func histStat(h HistogramSnapshot) HistStat {
	hs := HistStat{Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max, Mean: h.Sum / float64(h.Count)}
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		le := "+Inf"
		if i < len(h.Le) {
			le = formatFloat(h.Le[i])
		}
		hs.Buckets = append(hs.Buckets, BucketStat{Le: le, Count: c})
	}
	return hs
}
