package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Tracing complements the registry's aggregates with per-event spans: where
// a phase series answers "how much time did phase X take in total", the
// tracer answers "when did each unit of work run, on which worker, nested
// under what". Spans form a tree (parent/child links) and carry a track id —
// track 0 is the issuing goroutine ("main"), tracks >= 1 are worker-pool
// slots — so the exported trace (see traceexport.go) shows the pool's actual
// overlap in Perfetto / chrome://tracing.
//
// Like the registry, every method is nil-receiver-safe and a live tracer
// never changes the computation it observes: extraction outputs are bitwise
// identical with tracing on or off (enforced by the core determinism suite),
// and the per-span cost is measured by BenchmarkSpanOverhead.

// DefaultSpanCap is the span-buffer capacity used when NewTracer is given a
// non-positive cap: generous for the repo's examples (a 256-contact
// extraction emits a few thousand spans) while bounding memory on very
// large runs. Overflow is never silent — see Dropped.
const DefaultSpanCap = 1 << 16

// spanRec is one finished span in the bounded buffer.
type spanRec struct {
	id     int64
	parent int64 // 0 = root
	track  int
	name   string
	start  time.Time
	dur    time.Duration
	args   map[string]any
}

// Tracer collects finished spans into a bounded in-memory buffer. Begin/End
// may be called from any goroutine; each Span must be ended by the
// goroutine that owns it (the usual single-writer discipline).
type Tracer struct {
	start    time.Time
	capacity int

	nextID  atomic.Int64
	dropped atomic.Int64

	mu    sync.Mutex
	spans []spanRec
}

// NewTracer returns a tracer whose buffer holds at most capacity finished
// spans (capacity <= 0 selects DefaultSpanCap). Spans finished after the
// buffer is full are counted in Dropped instead of silently vanishing.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultSpanCap
	}
	return &Tracer{start: time.Now(), capacity: capacity}
}

// Span is one in-flight unit of work. A nil Span is a no-op: all methods
// are safe to call and Child returns nil, so instrumented code threads
// spans unconditionally.
type Span struct {
	t      *Tracer
	id     int64
	parent int64
	track  int
	name   string
	start  time.Time
	args   map[string]any
}

// Begin starts a root span on track 0 (the issuing goroutine's track).
func (t *Tracer) Begin(name string) *Span { return t.BeginOn(0, name) }

// BeginOn starts a root span on an explicit track. Worker-pool code uses
// track = worker index + 1 so each pool slot renders as its own row.
func (t *Tracer) BeginOn(track int, name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, id: t.nextID.Add(1), track: track, name: name, start: time.Now()}
}

// Child starts a child span on the same track as sp.
func (sp *Span) Child(name string) *Span {
	if sp == nil {
		return nil
	}
	return sp.ChildOn(sp.track, name)
}

// ChildOn starts a child span on an explicit track (e.g. a per-worker solve
// under a main-track batch span).
func (sp *Span) ChildOn(track int, name string) *Span {
	if sp == nil {
		return nil
	}
	t := sp.t
	return &Span{t: t, id: t.nextID.Add(1), parent: sp.id, track: track, name: name, start: time.Now()}
}

// Arg attaches a key/value argument to the span (rendered in the trace
// viewer's detail pane). It returns sp for chaining. Must be called before
// End, by the goroutine that owns the span.
func (sp *Span) Arg(key string, v any) *Span {
	if sp == nil {
		return nil
	}
	if sp.args == nil {
		sp.args = make(map[string]any, 4)
	}
	sp.args[key] = v
	return sp
}

// End finishes the span and commits it to the tracer's buffer. If the
// buffer is full the span is counted in Dropped instead — no silent
// truncation.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	rec := spanRec{
		id:     sp.id,
		parent: sp.parent,
		track:  sp.track,
		name:   sp.name,
		start:  sp.start,
		dur:    time.Since(sp.start),
		args:   sp.args,
	}
	t := sp.t
	t.mu.Lock()
	if len(t.spans) < t.capacity {
		t.spans = append(t.spans, rec)
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()
	t.dropped.Add(1)
}

// Dropped returns how many finished spans did not fit in the buffer.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// SpanCount returns the number of spans committed to the buffer so far.
func (t *Tracer) SpanCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Tracks returns the sorted distinct track ids of the committed spans.
func (t *Tracer) Tracks() []int {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	seen := map[int]bool{}
	for i := range t.spans {
		seen[t.spans[i].track] = true
	}
	t.mu.Unlock()
	out := make([]int, 0, len(seen))
	for tr := range seen {
		out = append(out, tr)
	}
	for i := 1; i < len(out); i++ { // insertion sort: track sets are tiny
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// snapshot copies the committed spans (for export and tests).
func (t *Tracer) snapshot() []spanRec {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]spanRec, len(t.spans))
	copy(out, t.spans)
	return out
}
