package lowrank

import (
	"subcouple/internal/par"
	"subcouple/internal/sparse"
)

// assembleGw fills the kept entries of Gw (§4.4.1): interactions between
// fast-decaying T columns in squares local to each other (same-level and
// the conservative cross-level ancestor rule), plus the level-2
// slow-decaying U columns against everything.
func (tr *Transformed) assembleGw(level2 map[int]*sweepSquare) {
	r := tr.Rep
	n := r.Layout.N()
	asp := r.Opt.Trace.Begin("lowrank/gw_assembly").Arg("n", n)
	defer asp.End()
	gw := sparse.NewSymSet(n)
	// Per-square entry lists are computed on the worker pool and merged
	// into the assembler serially in square order, so the set-semantics
	// overwrites resolve the same way for any worker count.
	type gwEntry struct {
		i, j int
		v    float64
	}

	// T blocks: for each square s at each level, the D_s matrix provides
	// responses at local contacts; dot with the T columns of s's local
	// squares and all of their descendants.
	for lev := 2; lev <= r.Tree.MaxLevel; lev++ {
		states := tr.sweepStates[lev]
		squares := r.Tree.SquaresAt(lev)
		lists := make([][]gwEntry, len(squares))
		lsp := asp.Child("lowrank/gw_level").Arg("level", lev).Arg("squares", len(squares))
		par.DoWorker(r.Opt.Workers, len(squares), func(worker, si int) {
			sq := squares[si]
			ss := states[sq.ID]
			if ss == nil || ss.T.Cols == 0 {
				return
			}
			ssp := lsp.ChildOn(worker+1, "lowrank/gw_square").Arg("square", sq.ID)
			targets := r.Tree.LocalColumns(sq, tr.tCols)
			list := make([]gwEntry, 0, ss.T.Cols*len(targets))
			for m := 0; m < ss.T.Cols; m++ {
				cj := tr.tCols[lev][sq.ID][m]
				dcol := ss.D.Col(m) // T columns come first in D
				for _, ti := range targets {
					list = append(list, gwEntry{ti, cj, tr.dotAgainstLocal(ti, dcol, ss.lIndex)})
				}
			}
			lists[si] = list
			ssp.Arg("entries", len(list)).End()
		})
		lsp.End()
		for _, list := range lists {
			for _, e := range list {
				gw.Put(e.i, e.j, e.v)
			}
		}
	}

	// Level-2 U columns interact with everything: full responses are
	// available because P_s covers the whole surface at level 2.
	l2squares := r.Tree.SquaresAt(2)
	ulists := make([][]gwEntry, len(l2squares))
	usp := asp.Child("lowrank/gw_u_block").Arg("squares", len(l2squares))
	par.DoWorker(r.Opt.Workers, len(l2squares), func(worker, si int) {
		sq := l2squares[si]
		ss := level2[sq.ID]
		if ss == nil {
			return
		}
		ssp := usp.ChildOn(worker+1, "lowrank/gw_square").Arg("square", sq.ID)
		defer ssp.End()
		var list []gwEntry
		for m := 0; m < ss.U.Cols; m++ {
			full := make([]float64, n)
			// Local part from D (U columns follow the T block).
			for i, c := range ss.lContacts {
				full[c] += ss.D.At(i, ss.T.Cols+m)
			}
			// Interactive part via (4.16).
			u := ss.U.Col(m)
			for _, dsq := range r.Tree.Interactive(sq) {
				d := r.at(2, dsq.ID)
				if d == nil {
					continue
				}
				resp := r.approxGds(d, ss.sd, u)
				for i, c := range dsq.Contacts {
					full[c] += resp[i]
				}
			}
			cj := ss.uBase + m
			for ci := 0; ci < n; ci++ {
				list = append(list, gwEntry{ci, cj, tr.Columns.Dot(ci, full)})
			}
		}
		ulists[si] = list
	})
	usp.End()
	for _, list := range ulists {
		for _, e := range list {
			gw.Put(e.i, e.j, e.v)
		}
	}
	tr.Gw = gw.Matrix()
}

// dotAgainstLocal computes qᵢᵀ·(G·t) where the response G·t is known at the
// local-contact rows indexed by lIndex. Column ci's support must lie inside
// that region (guaranteed by the target enumeration).
func (tr *Transformed) dotAgainstLocal(ci int, dcol []float64, lIndex map[int]int) float64 {
	c := tr.Columns
	var s float64
	for k := c.ColPtr[ci]; k < c.ColPtr[ci+1]; k++ {
		row, ok := lIndex[c.RowIdx[k]]
		if !ok {
			panic("lowrank: target column support escapes the local region")
		}
		s += c.Val[k] * dcol[row]
	}
	return s
}

// N returns the basis dimension.
func (tr *Transformed) N() int { return tr.Rep.Layout.N() }

// ColVector materializes Q column idx.
func (tr *Transformed) ColVector(idx int) []float64 { return tr.Columns.Vector(idx, tr.N()) }

// Q materializes the change-of-basis matrix with columns ordered: level-2 U
// block first, then T blocks level by level coarse to fine, squares in
// quadrant-hierarchical order (matching the thesis spy plots).
func (tr *Transformed) Q() *sparse.Matrix { return tr.Columns.Matrix(tr.N(), tr.ColumnOrder()) }

// ColumnOrder returns the presentation order of columns.
func (tr *Transformed) ColumnOrder() []int {
	var order []int
	order = append(order, tr.uCols...)
	for lev := 2; lev <= tr.Rep.Tree.MaxLevel; lev++ {
		for _, s := range tr.Rep.Tree.QuadrantOrder(lev) {
			order = append(order, tr.tCols[lev][s.ID]...)
		}
	}
	return order
}
