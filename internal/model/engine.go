package model

import (
	"fmt"
	"sync/atomic"
	"time"

	"subcouple/internal/obs"
	"subcouple/internal/sparse"
)

// MetricApplySeconds is the live-metrics family for engine kernel durations,
// labeled {kind, mode}: kind is the entry point (single/column/panel) and
// mode is always "exact", the one kernel family there is, kept so scrape
// configs matching on it still select the series. The name lives here
// rather than in internal/serve because the engine owns the series; serve
// and the CI scrape read the same spelling.
const MetricApplySeconds = "subcouple_engine_apply_seconds"

// Engine applies a Model with reusable scratch buffers: after construction
// the hot paths (ApplyInto, ColumnInto and ApplyPanelInto at workers=1)
// perform no allocations. An Engine is not safe for concurrent use — panel
// applies parallelize internally over per-worker scratch, and independent
// goroutines should each hold their own Engine (or check engines out of an
// internal/serve/registry pool). The restriction is enforced: every public
// apply holds a cheap atomic in-use guard, so two goroutines sharing one
// Engine panic deterministically instead of silently corrupting scratch.
//
// Every apply is bitwise-deterministic: the per-column arithmetic never
// depends on buffer history (outputs are fully overwritten), on the panel
// width (panel kernels run the single-RHS accumulation sequence per column),
// or on the worker count (panel chunks are computed independently into
// their own slots), so Engine output on a decoded artifact is bitwise
// identical to the in-memory extraction result's.
type Engine struct {
	m    *Model
	tr   *obs.Tracer
	sc   *scratch
	pool []*scratch // per-worker scratch for panel chunks, grown on demand

	// panel carries the per-call state of a panel apply, and panelFn is the
	// worker body capturing it, built once so the hot path does not
	// allocate a fresh closure per call.
	panel   panelState
	panelFn func(worker, ci int)

	// busy is the concurrent-misuse guard: 0 when idle, 1 while a public
	// apply owns the scratch buffers.
	busy atomic.Int32

	// Live-metrics duration histograms per entry-point kind (nil without
	// SetMetrics; nil-safe, and recording is atomics-only so the hot paths
	// stay allocation-free).
	mApply, mColumn, mPanel *obs.Histogram
}

// panelState is the in-flight panel apply.
type panelState struct {
	dst, x   []float64
	k, chunk int
	gw       *sparse.Matrix
	sp       *obs.Span
}

// scratch holds the working vectors of one apply stream.
type scratch struct {
	u, w []float64 // coefficient-space vectors (Qᵀx and Gw·Qᵀx)
	a, b []float64 // factored-chain ping-pong buffers (QFactored only)
	unit []float64 // kept all-zero between column applies

	// Panel buffers (n×width column-major), grown on demand by ensurePanel.
	pu, pw []float64
	pa, pb []float64 // factored panel ping-pong (QFactored only)
}

// clearUnit re-zeroes one unit-vector slot; the column applies arm it and
// reset via defer so a panic mid-apply (recovered by callers like serve's
// flush backstop) can never leave the unit vector dirty — a leaked 1 would
// silently corrupt every later column.
func (sc *scratch) clearUnit(j int) { sc.unit[j] = 0 }

func newScratch(m *Model) *scratch {
	sc := &scratch{
		u:    make([]float64, m.N),
		w:    make([]float64, m.N),
		unit: make([]float64, m.N),
	}
	if m.Kind == QFactored {
		sc.a = make([]float64, m.N)
		sc.b = make([]float64, m.N)
	}
	return sc
}

// ensurePanel grows the scratch's panel buffers to hold width columns.
func (sc *scratch) ensurePanel(m *Model, width int) {
	if len(sc.pu) >= m.N*width {
		return
	}
	sc.pu = make([]float64, m.N*width)
	sc.pw = make([]float64, m.N*width)
	if m.Kind == QFactored {
		sc.pa = make([]float64, m.N*width)
		sc.pb = make([]float64, m.N*width)
	}
}

// NewEngine builds an apply engine over m. The model must be valid (Decode
// guarantees it; extraction-built models are valid by construction).
func NewEngine(m *Model) *Engine {
	e := &Engine{m: m, sc: newScratch(m)}
	e.panelFn = func(worker, ci int) {
		n := e.m.N
		c0 := ci * e.panel.chunk
		c1 := min(c0+e.panel.chunk, e.panel.k)
		csp := e.panel.sp.ChildOn(worker+1, "model/panel_chunk").Arg("c0", c0).Arg("cols", c1-c0)
		e.applyPanel(e.pool[worker], e.panel.dst[c0*n:c1*n], e.panel.x[c0*n:c1*n], e.panel.gw, c1-c0)
		csp.End()
	}
	return e
}

// Model returns the engine's model.
func (e *Engine) Model() *Model { return e.m }

// N returns the operator dimension.
func (e *Engine) N() int { return e.m.N }

// SetTracer attaches an optional tracer (per-panel spans). A nil tracer
// records nothing; tracing never changes apply outputs.
func (e *Engine) SetTracer(tr *obs.Tracer) { e.tr = tr }

// SetMetrics attaches the kernel-duration histograms (MetricApplySeconds,
// labeled with the entry-point kind), where every apply is recorded once.
// Engines sharing one registry share the series — the registry hands back
// the same handle — so a pool aggregates naturally. A nil registry leaves
// recording a no-op; like tracing, metrics never change apply outputs.
func (e *Engine) SetMetrics(ms *obs.Metrics) {
	const help = "engine kernel duration by serving mode and entry-point kind"
	e.mApply = ms.Histogram(MetricApplySeconds, help, "kind", "single", "mode", "exact")
	e.mColumn = ms.Histogram(MetricApplySeconds, help, "kind", "column", "mode", "exact")
	e.mPanel = ms.Histogram(MetricApplySeconds, help, "kind", "panel", "mode", "exact")
}

// acquire takes the in-use guard or panics: an Engine's scratch buffers hold
// per-call state, so overlapping applies from two goroutines would corrupt
// each other's results silently. Failing the CAS means another apply is in
// flight right now, which is always a caller bug — panic while the engine's
// own state is still untouched.
func (e *Engine) acquire(method string) {
	if !e.busy.CompareAndSwap(0, 1) {
		panic("model: concurrent " + method + " on a shared Engine (an Engine is " +
			"single-threaded; give each goroutine its own via NewEngine or check " +
			"engines out of a pool)")
	}
}

func (e *Engine) release() { e.busy.Store(0) }

// checkVec validates one vector argument of a public apply, with the
// argument's name and both lengths in the panic message.
func (e *Engine) checkVec(method, name string, v []float64) {
	if v == nil {
		panic(fmt.Sprintf("model: %s: %s is nil (want length %d)", method, name, e.m.N))
	}
	if len(v) != e.m.N {
		panic(fmt.Sprintf("model: %s: %s has length %d, want %d", method, name, len(v), e.m.N))
	}
}

// checkAlias enforces the documented "dst may not alias x" contract with a
// clear panic instead of the silent corruption aliasing used to cause (the
// kernels overwrite dst while still reading x).
func (e *Engine) checkAlias(method string, dst, x []float64) {
	if len(dst) > 0 && len(x) > 0 && &dst[0] == &x[0] {
		panic("model: " + method + ": dst aliases x (the apply overwrites dst while " +
			"still reading x; pass distinct buffers)")
	}
}

// checkIndex validates a column index argument.
func (e *Engine) checkIndex(method string, j int) {
	if j < 0 || j >= e.m.N {
		panic(fmt.Sprintf("model: %s: column %d out of range [0,%d)", method, j, e.m.N))
	}
}

// gw returns the coefficient matrix an apply reads: the thresholded Gwt
// (panicking when the model carries none) or Gw.
func (e *Engine) gw(thresholded bool) *sparse.Matrix {
	if !thresholded {
		return e.m.Gw
	}
	if e.m.Gwt == nil {
		panic("model: no thresholded representation")
	}
	return e.m.Gwt
}

// ApplyInto computes dst = Q·Gw·Qᵀ·x in place with no allocations: the
// width-1, unthresholded panel run, which is the single-RHS kernel every
// panel column is bitwise equal to. It keeps its own argument messages and
// telemetry names. dst and x must both have length N, and dst may not alias
// x (enforced).
func (e *Engine) ApplyInto(dst, x []float64) {
	e.checkVec("ApplyInto", "dst", dst)
	e.checkVec("ApplyInto", "x", x)
	e.checkAlias("ApplyInto", dst, x)
	e.acquire("ApplyInto")
	defer e.release()
	start := time.Now()
	e.panelRun(dst, x, e.m.Gw, 1, 1, nil)
	e.mApply.Observe(time.Since(start).Seconds())
}

// ColumnInto computes column j of Q·Gw·Qᵀ (Q·Gwt·Qᵀ when thresholded) into
// dst with no allocations. It applies a unit vector whose armed slot is
// reset via defer — see scratch.clearUnit.
func (e *Engine) ColumnInto(dst []float64, j int, thresholded bool) {
	gw := e.gw(thresholded)
	e.checkVec("ColumnInto", "dst", dst)
	e.checkIndex("ColumnInto", j)
	e.acquire("ColumnInto")
	defer e.release()
	start := time.Now()
	e.sc.unit[j] = 1
	defer e.sc.clearUnit(j)
	e.applyInto(e.sc, dst, gw, e.sc.unit)
	e.mColumn.Observe(time.Since(start).Seconds())
}

// QColumnInto materializes native column j of Q itself (not the full
// operator) into dst.
func (e *Engine) QColumnInto(dst []float64, j int) {
	e.checkVec("QColumnInto", "dst", dst)
	e.checkIndex("QColumnInto", j)
	e.acquire("QColumnInto")
	defer e.release()
	switch e.m.Kind {
	case QColumns:
		for i := range dst {
			dst[i] = 0
		}
		c := e.m.Cols
		for k := c.ColPtr[j]; k < c.ColPtr[j+1]; k++ {
			dst[c.RowIdx[k]] = c.Val[k]
		}
	case QFactored:
		e.sc.unit[j] = 1
		defer e.sc.clearUnit(j)
		e.forwardInto(e.sc, dst, e.sc.unit)
	}
}

// applyInto runs the three-stage operator u = Qᵀx, w = Gw·u, dst = Q·w on
// the given scratch. The loop order in each stage replicates the in-memory
// extraction representations exactly (sparse.Columns.Apply's column loops;
// wavelet.FactoredQ's level chain), which is what makes decoded
// artifacts bitwise-identical to the live result.
func (e *Engine) applyInto(sc *scratch, dst []float64, gw *sparse.Matrix, x []float64) {
	if len(x) != e.m.N || len(dst) != e.m.N {
		panic("model: apply dimension mismatch")
	}
	switch e.m.Kind {
	case QColumns:
		c := e.m.Cols
		for j := 0; j < e.m.N; j++ {
			var s float64
			for k := c.ColPtr[j]; k < c.ColPtr[j+1]; k++ {
				s += c.Val[k] * x[c.RowIdx[k]]
			}
			sc.u[j] = s
		}
		gw.MulVecInto(sc.w, sc.u)
		for i := range dst {
			dst[i] = 0
		}
		for j, wc := range sc.w {
			if wc != 0 {
				for k := c.ColPtr[j]; k < c.ColPtr[j+1]; k++ {
					dst[c.RowIdx[k]] += wc * c.Val[k]
				}
			}
		}
	case QFactored:
		e.backwardInto(sc, sc.u, x)
		gw.MulVecInto(sc.w, sc.u)
		e.forwardInto(sc, dst, sc.w)
	}
}

// forwardInto computes dst = Q·x through the level chain (Q⁽⁰⁾ first).
func (e *Engine) forwardInto(sc *scratch, dst, x []float64) {
	cur, nxt := sc.a, sc.b
	copy(cur, x)
	for li := range e.m.Levels {
		lv := &e.m.Levels[li]
		for i := range nxt {
			nxt[i] = 0
		}
		for _, i := range lv.PassThrough {
			nxt[i] = cur[i]
		}
		for bi := range lv.Blocks {
			blk := &lv.Blocks[bi]
			for r, oi := range blk.Out {
				var s float64
				row := blk.Data[r*blk.Cols : (r+1)*blk.Cols]
				for c, ii := range blk.In {
					s += row[c] * cur[ii]
				}
				nxt[oi] = s
			}
		}
		cur, nxt = nxt, cur
	}
	copy(dst, cur)
}

// backwardInto computes dst = Qᵀ·x through the level chain (Q⁽ᴸ⁾ᵀ first).
func (e *Engine) backwardInto(sc *scratch, dst, x []float64) {
	cur, nxt := sc.a, sc.b
	copy(cur, x)
	for li := len(e.m.Levels) - 1; li >= 0; li-- {
		lv := &e.m.Levels[li]
		for i := range nxt {
			nxt[i] = 0
		}
		for _, i := range lv.PassThrough {
			nxt[i] = cur[i]
		}
		for bi := range lv.Blocks {
			blk := &lv.Blocks[bi]
			for c, ii := range blk.In {
				var s float64
				for r, oi := range blk.Out {
					s += blk.Data[r*blk.Cols+c] * cur[oi]
				}
				nxt[ii] = s
			}
		}
		cur, nxt = nxt, cur
	}
	copy(dst, cur)
}

// growPool ensures at least w per-worker scratch streams exist.
func (e *Engine) growPool(w int) {
	for len(e.pool) < w {
		e.pool = append(e.pool, newScratch(e.m))
	}
}
