package model

import (
	"fmt"
	"time"

	"subcouple/internal/obs"
	"subcouple/internal/par"
	"subcouple/internal/sparse"
)

// Panel applies: the multi-RHS serving kernels.
//
// A panel packs k right-hand sides column-major — column c of an n×k panel
// occupies p[c*n : (c+1)*n] — so one sweep over Gw's CSR structure and one
// sweep over Q's columns (or one pass down the factored level chain) touch
// all k RHS, instead of re-streaming the matrices k times as k single
// applies do. On the serving layouts Gw is the dominant stream (hundreds of
// KB of CSR data per apply), so amortizing it across the panel is where the
// batched-apply speedup comes from, even on a single core.
//
// Per column the arithmetic is the exact accumulation sequence of the
// single-RHS kernel — same terms, same order — so every panel column is
// bitwise identical to ApplyInto on that column, for any panel width,
// chunking, and worker count. Parallelism only partitions the panel into
// contiguous column chunks, each computed independently on its own scratch;
// the worker slot never influences a result.

// checkPanelArgs validates a public panel apply's arguments: positive width,
// exact n·k lengths, and the no-aliasing contract.
func (e *Engine) checkPanelArgs(method string, dst, x []float64, k int) {
	n := e.m.N
	if k < 1 {
		panic(fmt.Sprintf("model: %s: panel width %d (want >= 1)", method, k))
	}
	if len(x) != n*k {
		panic(fmt.Sprintf("model: %s: x has %d entries, want %d (= %d x %d column-major)",
			method, len(x), n*k, n, k))
	}
	if len(dst) != n*k {
		panic(fmt.Sprintf("model: %s: dst has %d entries, want %d (= %d x %d column-major)",
			method, len(dst), n*k, n, k))
	}
	if &dst[0] == &x[0] {
		panic("model: " + method + ": dst aliases x (the apply overwrites dst while " +
			"still reading x; pass distinct panels)")
	}
}

// ApplyPanelInto computes dst = Q·Gw·Qᵀ·X (Q·Gwt·Qᵀ·X when thresholded;
// panics when the model carries no Gwt) for a column-major n×k panel X
// (column c at x[c*n:(c+1)*n]), writing the same layout into dst. dst may
// not alias x. Column c of dst is bitwise identical to the single-RHS apply
// of column c of x, for any worker count. Steady-state calls allocate
// nothing once the per-worker scratch is warm.
func (e *Engine) ApplyPanelInto(dst, x []float64, k, workers int, thresholded bool) {
	gw := e.gw(thresholded)
	e.checkPanelArgs("ApplyPanelInto", dst, x, k)
	e.acquire("ApplyPanelInto")
	defer e.release()
	defer e.rec.Phase("model/apply_panel")()
	e.rec.Add("model/panel_cols", int64(k))
	sp := e.tr.Begin("model/apply_panel").Arg("cols", k).Arg("workers", par.Workers(workers))
	defer sp.End()
	start := time.Now()
	e.panelRun(dst, x, gw, k, workers, sp)
	e.mPanel.Observe(time.Since(start).Seconds())
}

// panelRun partitions a validated panel into contiguous column chunks and
// fans the chunks over the worker pool. k == 1 short-circuits to the
// single-RHS kernel — the panel kernels' bitwise reference — so a lone
// request and a batched one run literally the same code there.
func (e *Engine) panelRun(dst, x []float64, gw *sparse.Matrix, k, workers int, sp *obs.Span) {
	if k == 1 {
		e.applyInto(e.sc, dst, gw, x)
		return
	}
	w := min(par.Workers(workers), k)
	chunk := (k + w - 1) / w
	nch := (k + chunk - 1) / chunk
	e.growPool(nch)
	for i := 0; i < nch; i++ {
		e.pool[i].ensurePanel(e.m, chunk)
	}
	e.panel = panelState{dst: dst, x: x, k: k, chunk: chunk, gw: gw, sp: sp}
	par.DoWorker(w, nch, e.panelFn)
	e.panel = panelState{}
}

// applyPanel is the float64 multi-RHS operator: the three-stage
// U = QᵀX, W = Gw·U, dst = Q·W with each stage sweeping the matrix structure
// once for all k columns, register-blocked four panel columns at a time so
// the structure loads (ColPtr/RowIdx/Val) are amortized across the group.
// Within every (basis column, panel column) pair the accumulation replicates
// applyInto exactly — register sum assigned once in stage 1, CSR-row order
// in stage 2, the wc != 0 guarded scatter in stage 3 — which is what keeps
// panel columns bitwise identical to single applies. A width-1 chunk runs
// the single-RHS kernel itself, so the chunked result cannot depend on how
// the panel was partitioned.
func (e *Engine) applyPanel(sc *scratch, dst, x []float64, gw *sparse.Matrix, k int) {
	if k == 1 {
		e.applyInto(sc, dst, gw, x)
		return
	}
	n := e.m.N
	switch e.m.Kind {
	case QColumns:
		c := e.m.Cols
		pu, pw := sc.pu[:n*k], sc.pw[:n*k]
		cc := 0
		for ; cc+4 <= k; cc += 4 {
			x0, x1 := x[(cc+0)*n:(cc+1)*n], x[(cc+1)*n:(cc+2)*n]
			x2, x3 := x[(cc+2)*n:(cc+3)*n], x[(cc+3)*n:(cc+4)*n]
			u0, u1 := pu[(cc+0)*n:(cc+1)*n], pu[(cc+1)*n:(cc+2)*n]
			u2, u3 := pu[(cc+2)*n:(cc+3)*n], pu[(cc+3)*n:(cc+4)*n]
			for j := 0; j < n; j++ {
				var s0, s1, s2, s3 float64
				for p := c.ColPtr[j]; p < c.ColPtr[j+1]; p++ {
					v, ri := c.Val[p], c.RowIdx[p]
					s0 += v * x0[ri]
					s1 += v * x1[ri]
					s2 += v * x2[ri]
					s3 += v * x3[ri]
				}
				u0[j], u1[j], u2[j], u3[j] = s0, s1, s2, s3
			}
		}
		for ; cc < k; cc++ {
			xc, uc := x[cc*n:(cc+1)*n], pu[cc*n:(cc+1)*n]
			for j := 0; j < n; j++ {
				var s float64
				for p := c.ColPtr[j]; p < c.ColPtr[j+1]; p++ {
					s += c.Val[p] * xc[c.RowIdx[p]]
				}
				uc[j] = s
			}
		}
		gw.MulPanelInto(pw, pu, k)
		for i := range dst {
			dst[i] = 0
		}
		cc = 0
		for ; cc+4 <= k; cc += 4 {
			d0, d1 := dst[(cc+0)*n:(cc+1)*n], dst[(cc+1)*n:(cc+2)*n]
			d2, d3 := dst[(cc+2)*n:(cc+3)*n], dst[(cc+3)*n:(cc+4)*n]
			w0, w1 := pw[(cc+0)*n:(cc+1)*n], pw[(cc+1)*n:(cc+2)*n]
			w2, w3 := pw[(cc+2)*n:(cc+3)*n], pw[(cc+3)*n:(cc+4)*n]
			for j := 0; j < n; j++ {
				wc0, wc1, wc2, wc3 := w0[j], w1[j], w2[j], w3[j]
				if wc0 == 0 && wc1 == 0 && wc2 == 0 && wc3 == 0 {
					continue
				}
				// Per column the wc != 0 guard must stay individual: a
				// skipped column adds nothing, exactly like applyInto.
				for p := c.ColPtr[j]; p < c.ColPtr[j+1]; p++ {
					v, ri := c.Val[p], c.RowIdx[p]
					if wc0 != 0 {
						d0[ri] += wc0 * v
					}
					if wc1 != 0 {
						d1[ri] += wc1 * v
					}
					if wc2 != 0 {
						d2[ri] += wc2 * v
					}
					if wc3 != 0 {
						d3[ri] += wc3 * v
					}
				}
			}
		}
		for ; cc < k; cc++ {
			dc, wc := dst[cc*n:(cc+1)*n], pw[cc*n:(cc+1)*n]
			for j := 0; j < n; j++ {
				w := wc[j]
				if w == 0 {
					continue
				}
				for p := c.ColPtr[j]; p < c.ColPtr[j+1]; p++ {
					dc[c.RowIdx[p]] += w * c.Val[p]
				}
			}
		}
	case QFactored:
		e.backwardPanel(sc, sc.pu[:n*k], x, k)
		gw.MulPanelInto(sc.pw[:n*k], sc.pu[:n*k], k)
		e.forwardPanel(sc, dst, sc.pw[:n*k], k)
	}
}

// forwardPanel computes dst = Q·X through the level chain (Q⁽⁰⁾ first) for a
// column-major panel, register-blocked four columns at a time so each block
// row's dense data is loaded once per group. Per panel column each block row
// accumulates into a register and assigns once, exactly like forwardInto.
func (e *Engine) forwardPanel(sc *scratch, dst, x []float64, k int) {
	n := e.m.N
	cur, nxt := sc.pa[:n*k], sc.pb[:n*k]
	copy(cur, x)
	for li := range e.m.Levels {
		lv := &e.m.Levels[li]
		for i := range nxt {
			nxt[i] = 0
		}
		for _, i := range lv.PassThrough {
			for cc := 0; cc < k; cc++ {
				nxt[cc*n+i] = cur[cc*n+i]
			}
		}
		for bi := range lv.Blocks {
			blk := &lv.Blocks[bi]
			for r, oi := range blk.Out {
				row := blk.Data[r*blk.Cols : (r+1)*blk.Cols]
				cc := 0
				for ; cc+8 <= k; cc += 8 {
					b0, b1, b2, b3 := (cc+0)*n, (cc+1)*n, (cc+2)*n, (cc+3)*n
					b4, b5, b6, b7 := (cc+4)*n, (cc+5)*n, (cc+6)*n, (cc+7)*n
					var s0, s1, s2, s3, s4, s5, s6, s7 float64
					for c, ii := range blk.In {
						v := row[c]
						s0 += v * cur[b0+ii]
						s1 += v * cur[b1+ii]
						s2 += v * cur[b2+ii]
						s3 += v * cur[b3+ii]
						s4 += v * cur[b4+ii]
						s5 += v * cur[b5+ii]
						s6 += v * cur[b6+ii]
						s7 += v * cur[b7+ii]
					}
					nxt[b0+oi], nxt[b1+oi], nxt[b2+oi], nxt[b3+oi] = s0, s1, s2, s3
					nxt[b4+oi], nxt[b5+oi], nxt[b6+oi], nxt[b7+oi] = s4, s5, s6, s7
				}
				for ; cc+4 <= k; cc += 4 {
					b0, b1, b2, b3 := (cc+0)*n, (cc+1)*n, (cc+2)*n, (cc+3)*n
					var s0, s1, s2, s3 float64
					for c, ii := range blk.In {
						v := row[c]
						s0 += v * cur[b0+ii]
						s1 += v * cur[b1+ii]
						s2 += v * cur[b2+ii]
						s3 += v * cur[b3+ii]
					}
					nxt[b0+oi], nxt[b1+oi], nxt[b2+oi], nxt[b3+oi] = s0, s1, s2, s3
				}
				for ; cc < k; cc++ {
					base := cc * n
					var s float64
					for c, ii := range blk.In {
						s += row[c] * cur[base+ii]
					}
					nxt[base+oi] = s
				}
			}
		}
		cur, nxt = nxt, cur
	}
	copy(dst, cur)
}

// backwardPanel computes dst = Qᵀ·X through the level chain (Q⁽ᴸ⁾ᵀ first)
// for a column-major panel, mirroring backwardInto per column with the same
// four-column register blocking as forwardPanel.
func (e *Engine) backwardPanel(sc *scratch, dst, x []float64, k int) {
	n := e.m.N
	cur, nxt := sc.pa[:n*k], sc.pb[:n*k]
	copy(cur, x)
	for li := len(e.m.Levels) - 1; li >= 0; li-- {
		lv := &e.m.Levels[li]
		for i := range nxt {
			nxt[i] = 0
		}
		for _, i := range lv.PassThrough {
			for cc := 0; cc < k; cc++ {
				nxt[cc*n+i] = cur[cc*n+i]
			}
		}
		for bi := range lv.Blocks {
			blk := &lv.Blocks[bi]
			for c, ii := range blk.In {
				cc := 0
				for ; cc+8 <= k; cc += 8 {
					b0, b1, b2, b3 := (cc+0)*n, (cc+1)*n, (cc+2)*n, (cc+3)*n
					b4, b5, b6, b7 := (cc+4)*n, (cc+5)*n, (cc+6)*n, (cc+7)*n
					var s0, s1, s2, s3, s4, s5, s6, s7 float64
					for r, oi := range blk.Out {
						v := blk.Data[r*blk.Cols+c]
						s0 += v * cur[b0+oi]
						s1 += v * cur[b1+oi]
						s2 += v * cur[b2+oi]
						s3 += v * cur[b3+oi]
						s4 += v * cur[b4+oi]
						s5 += v * cur[b5+oi]
						s6 += v * cur[b6+oi]
						s7 += v * cur[b7+oi]
					}
					nxt[b0+ii], nxt[b1+ii], nxt[b2+ii], nxt[b3+ii] = s0, s1, s2, s3
					nxt[b4+ii], nxt[b5+ii], nxt[b6+ii], nxt[b7+ii] = s4, s5, s6, s7
				}
				for ; cc+4 <= k; cc += 4 {
					b0, b1, b2, b3 := (cc+0)*n, (cc+1)*n, (cc+2)*n, (cc+3)*n
					var s0, s1, s2, s3 float64
					for r, oi := range blk.Out {
						v := blk.Data[r*blk.Cols+c]
						s0 += v * cur[b0+oi]
						s1 += v * cur[b1+oi]
						s2 += v * cur[b2+oi]
						s3 += v * cur[b3+oi]
					}
					nxt[b0+ii], nxt[b1+ii], nxt[b2+ii], nxt[b3+ii] = s0, s1, s2, s3
				}
				for ; cc < k; cc++ {
					base := cc * n
					var s float64
					for r, oi := range blk.Out {
						s += blk.Data[r*blk.Cols+c] * cur[base+oi]
					}
					nxt[base+ii] = s
				}
			}
		}
		cur, nxt = nxt, cur
	}
	copy(dst, cur)
}
