package obs

// metrics.go — the telemetry registry every tool records into: atomic
// counters, gauges, and fixed-ladder histograms, written by many goroutines,
// scraped while the process runs, and cheap enough to sit on the hot path.
// The record methods (Counter.Add, Gauge.Set, Histogram.Observe) perform
// zero steady-state allocations (pinned by AllocsPerRun in metrics_test.go)
// and never take the registry lock — the lock guards registration and
// enumeration only. The serving daemons register their own families; batch
// tools record through the six batch families of obs.go, which Report turns
// into a run report's obs and numerics sections. Each event is recorded
// once.
//
// Handles follow the package's nil-safety convention: every method is a
// no-op (or zero) on a nil receiver, and registration methods on a nil
// *Metrics return nil handles, so instrumented code records unconditionally.
// A nil registry means telemetry is off, and costs only a nil check.
//
// Export paths:
//   - WritePrometheus renders the classic text exposition format
//     (# HELP / # TYPE / name{labels} value, cumulative _bucket/_sum/_count
//     histograms) for GET /metrics — hand-rolled, no dependencies.
//   - Snapshot returns a JSON-marshalable copy for the expvar mirrors and the
//     run report's serving block; Report (obs.go) builds the batch sections.
//
// Histograms are cumulative (Prometheus semantics): a scraper that wants a
// windowed view diffs two scrapes, so the daemon never has to rotate
// buckets on the record path.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefaultLatencyBuckets is the histogram ladder used unless a family is
// registered with explicit buckets: log-spaced 1-2.5-5 steps from 1µs to
// 10s, in seconds. Wide enough that a sub-microsecond engine apply and a
// multi-second cold pool wait land on the same ladder without aliasing;
// values above 10s go to the +Inf overflow bucket, never lost.
var DefaultLatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5,
	1, 2.5, 5, 10,
}

// Counter is a monotonically increasing atomic counter handle.
type Counter struct{ v atomic.Int64 }

// Add increments the counter; negative deltas are a caller bug but are not
// policed on the hot path (the exposition writer clamps nothing — validation
// happens in report checks).
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil handle).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous-value handle (queue depth, in-use
// engines).
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta and returns the new value (0 on nil).
func (g *Gauge) Add(delta int64) int64 {
	if g == nil {
		return 0
	}
	return g.v.Add(delta)
}

// Value returns the current gauge value (0 on a nil handle).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-ladder histogram handle that also tracks the
// smallest, largest and most recent sample. Observe is lock-free: one binary
// search over the ladder plus atomic updates.
type Histogram struct {
	bounds  []float64 // shared with the family; never mutated
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
	// float64 bits: min and max start at +Inf and -Inf and move by CAS, last
	// is a plain store.
	minBits, maxBits, lastBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one sample (seconds for latency ladders).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.buckets[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if !(v < math.Float64frombits(old)) || h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if !(v > math.Float64frombits(old)) || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	h.lastBits.Store(math.Float64bits(v))
}

// Count returns the total number of samples (0 on a nil handle).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all samples (0 on a nil handle).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Snapshot copies the histogram's current state. Counts are per-bucket (the
// exposition writer cumulates them); len(Counts) == len(Le)+1, the last
// entry being the +Inf overflow. Min and Max read 0 until a sample has
// reached them — a snapshot may land between a first sample's count and its
// min/max store — so the snapshot never carries an infinity.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Le:     h.bounds,
		Counts: make([]int64, len(h.buckets)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
		Last:   math.Float64frombits(h.lastBits.Load()),
	}
	if v := math.Float64frombits(h.minBits.Load()); !math.IsInf(v, 0) {
		s.Min = v
	}
	if v := math.Float64frombits(h.maxBits.Load()); !math.IsInf(v, 0) {
		s.Max = v
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	return s
}

// Quantile estimates the q-quantile (0 < q < 1) over all samples so far.
func (h *Histogram) Quantile(q float64) float64 { return h.Snapshot().Quantile(q) }

// HistogramSnapshot is an immutable copy of a histogram, JSON-marshalable
// (the bounds are finite and Min/Max never hold their infinite starting
// values, so no Inf literals reach encoding/json).
type HistogramSnapshot struct {
	Le     []float64 `json:"le"`     // finite upper bounds; +Inf is implicit
	Counts []int64   `json:"counts"` // per-bucket, last entry = overflow
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Last   float64   `json:"last"` // the most recent sample
}

// Quantile estimates the q-quantile by linear interpolation inside the
// bucket containing the target rank (the same estimate Prometheus's
// histogram_quantile computes). An empty snapshot returns 0; ranks landing
// in the overflow bucket return the top finite bound — a floor, clearly
// marked by equaling the ladder's end.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count <= 0 || len(s.Le) == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, c := range s.Counts {
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(s.Le) {
			return s.Le[len(s.Le)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Le[i-1]
		}
		hi := s.Le[i]
		if c <= 0 {
			return hi
		}
		return lo + (hi-lo)*(rank-float64(prev))/float64(c)
	}
	return s.Le[len(s.Le)-1]
}

// metricKind tags a family's type for exposition and snapshots.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	}
	return "histogram"
}

// series is one labeled instance inside a family.
type series struct {
	labels []string // sorted key/value pairs, flattened
	ctr    *Counter
	g      *Gauge
	h      *Histogram
}

// family groups every series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	bounds []float64 // histogram families only; fixed at first registration
	series []*series // registration order; label sets are unique
}

// Metrics is the registry. The zero value is not usable — call NewMetrics —
// but a nil *Metrics is: every method no-ops (registration returns nil
// handles), which is how an engine outside a daemon runs the same code.
type Metrics struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{families: map[string]*family{}}
}

// Counter returns the counter for name + labels, registering it on first
// use. labels are alternating key, value strings; the same (name, labels)
// always returns the same handle. help is kept from the first registration
// of the family.
func (m *Metrics) Counter(name, help string, labels ...string) *Counter {
	s := m.lookup(name, help, kindCounter, nil, labels)
	if s == nil {
		return nil
	}
	return s.ctr
}

// Gauge returns the gauge for name + labels, registering it on first use.
func (m *Metrics) Gauge(name, help string, labels ...string) *Gauge {
	s := m.lookup(name, help, kindGauge, nil, labels)
	if s == nil {
		return nil
	}
	return s.g
}

// Histogram returns the histogram for name + labels on the
// DefaultLatencyBuckets ladder, registering it on first use.
func (m *Metrics) Histogram(name, help string, labels ...string) *Histogram {
	return m.HistogramBuckets(name, help, nil, labels...)
}

// HistogramBuckets is Histogram with an explicit bucket ladder (ascending
// finite upper bounds; nil selects DefaultLatencyBuckets). A family's ladder
// is fixed by its first registration; later calls reuse it regardless of the
// buckets argument, so every series in a family shares one ladder.
func (m *Metrics) HistogramBuckets(name, help string, buckets []float64, labels ...string) *Histogram {
	s := m.lookup(name, help, kindHistogram, buckets, labels)
	if s == nil {
		return nil
	}
	return s.h
}

// lookup finds or creates the series for (name, labels). Kind mismatches on
// an existing family panic: two call sites disagreeing about a metric's type
// is a programming error no fallback can paper over.
func (m *Metrics) lookup(name, help string, kind metricKind, buckets []float64, labels []string) *series {
	if m == nil {
		return nil
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: metric %s: odd label list %q (want key, value pairs)", name, labels))
	}
	kv := sortPairs(labels)
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		if kind == kindHistogram {
			if buckets == nil {
				buckets = DefaultLatencyBuckets
			}
			f.bounds = buckets
		}
		m.families[name] = f
		m.order = append(m.order, name)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s registered as %s, requested as %s", name, f.kind, kind))
	}
	for _, s := range f.series {
		if pairsEqual(s.labels, kv) {
			return s
		}
	}
	s := &series{labels: kv}
	switch kind {
	case kindCounter:
		s.ctr = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	case kindHistogram:
		s.h = newHistogram(f.bounds)
	}
	f.series = append(f.series, s)
	return s
}

// sortPairs canonicalizes a flattened key/value list by key so label order
// at the call site never splits a series.
func sortPairs(labels []string) []string {
	if len(labels) <= 2 {
		return append([]string(nil), labels...)
	}
	idx := make([]int, len(labels)/2)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return labels[2*idx[a]] < labels[2*idx[b]] })
	out := make([]string, 0, len(labels))
	for _, i := range idx {
		out = append(out, labels[2*i], labels[2*i+1])
	}
	return out
}

func pairsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): families in registration order, each with # HELP
// and # TYPE headers, histograms as cumulative _bucket series with le labels
// plus _sum and _count. The writer holds the registry lock only to copy the
// family list; values are read via the same atomics the hot path writes.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	fams := make([]*family, 0, len(m.order))
	for _, name := range m.order {
		fams = append(fams, m.families[name])
	}
	m.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		if f.help != "" {
			b.WriteString("# HELP ")
			b.WriteString(f.name)
			b.WriteByte(' ')
			b.WriteString(escapeHelp(f.help))
			b.WriteByte('\n')
		}
		b.WriteString("# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.kind.String())
		b.WriteByte('\n')
		// Registration holds the lock; the series slice may grow behind us.
		// Re-read it under the lock for a consistent prefix.
		m.mu.Lock()
		ser := append([]*series(nil), f.series...)
		m.mu.Unlock()
		for _, s := range ser {
			switch f.kind {
			case kindCounter:
				writeSample(&b, f.name, "", s.labels, "", float64(s.ctr.Value()))
			case kindGauge:
				writeSample(&b, f.name, "", s.labels, "", float64(s.g.Value()))
			case kindHistogram:
				snap := s.h.Snapshot()
				var cum int64
				for i, bound := range snap.Le {
					cum += snap.Counts[i]
					writeSample(&b, f.name, "_bucket", s.labels, formatFloat(bound), float64(cum))
				}
				cum += snap.Counts[len(snap.Le)]
				writeSample(&b, f.name, "_bucket", s.labels, "+Inf", float64(cum))
				writeSample(&b, f.name, "_sum", s.labels, "", snap.Sum)
				writeSample(&b, f.name, "_count", s.labels, "", float64(snap.Count))
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// writeSample appends one exposition line: name+suffix{labels[,le]} value.
func writeSample(b *strings.Builder, name, suffix string, labels []string, le string, v float64) {
	b.WriteString(name)
	b.WriteString(suffix)
	if len(labels) > 0 || le != "" {
		b.WriteByte('{')
		for i := 0; i < len(labels); i += 2 {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(labels[i])
			b.WriteString(`="`)
			b.WriteString(escapeLabel(labels[i+1]))
			b.WriteByte('"')
		}
		if le != "" {
			if len(labels) > 0 {
				b.WriteByte(',')
			}
			b.WriteString(`le="`)
			b.WriteString(le)
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

// formatFloat renders a value in the shortest round-trip form, matching how
// Prometheus clients print samples.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the text format: backslash, quote,
// newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// escapeHelp escapes a help string: backslash and newline only (quotes are
// legal in help text).
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// LabelPair is one label in a snapshot, order-preserving under JSON.
type LabelPair struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// SeriesSnapshot is one series' state: Value for counters and gauges,
// Histogram for histograms.
type SeriesSnapshot struct {
	Labels    []LabelPair        `json:"labels,omitempty"`
	Value     *float64           `json:"value,omitempty"`
	Histogram *HistogramSnapshot `json:"histogram,omitempty"`
}

// FamilySnapshot is one metric family's state.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Kind   string           `json:"kind"`
	Help   string           `json:"help,omitempty"`
	Series []SeriesSnapshot `json:"series"`
}

// MetricsSnapshot is the registry's full JSON-marshalable state, served by
// the daemons' expvar mirror.
type MetricsSnapshot struct {
	Families []FamilySnapshot `json:"families"`
}

// Snapshot copies the whole registry. Families keep registration order;
// series keep registration order within their family.
func (m *Metrics) Snapshot() MetricsSnapshot {
	if m == nil {
		return MetricsSnapshot{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := MetricsSnapshot{Families: make([]FamilySnapshot, 0, len(m.order))}
	for _, name := range m.order {
		f := m.families[name]
		fs := FamilySnapshot{Name: f.name, Kind: f.kind.String(), Help: f.help}
		for _, s := range f.series {
			ss := SeriesSnapshot{}
			for i := 0; i < len(s.labels); i += 2 {
				ss.Labels = append(ss.Labels, LabelPair{Name: s.labels[i], Value: s.labels[i+1]})
			}
			switch f.kind {
			case kindCounter:
				v := float64(s.ctr.Value())
				ss.Value = &v
			case kindGauge:
				v := float64(s.g.Value())
				ss.Value = &v
			case kindHistogram:
				h := s.h.Snapshot()
				ss.Histogram = &h
			}
			fs.Series = append(fs.Series, ss)
		}
		out.Families = append(out.Families, fs)
	}
	return out
}
