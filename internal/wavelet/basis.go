// Package wavelet implements the Chapter 3 sparsification algorithm: a
// multilevel orthogonal change of basis Q built from vanishing polynomial
// moments, giving G ≈ Q·Gw·Qᵀ with sparse Q and (numerically) sparse Gw,
// extracted from O(log n) black-box solves via the combine-solves technique
// of §3.5.
//
// Construction (§3.4): in every finest-level square s the SVD of the moment
// matrix M_s splits the square's voltage space into V_s (nonvanishing
// moments, "slow-decaying") and W_s (vanishing moments up to order p,
// "fast-decaying"). On coarser levels the child V bases are recombined by
// the SVD of their parent-square moments into V_p and W_p. The W columns at
// all levels plus the level-0 V columns form Q.
package wavelet

import (
	"fmt"

	"subcouple/internal/geom"
	"subcouple/internal/la"
	"subcouple/internal/moments"
	"subcouple/internal/obs"
	"subcouple/internal/par"
	"subcouple/internal/quadtree"
	"subcouple/internal/sparse"
)

// ColKind distinguishes Q columns.
type ColKind int

const (
	// ColW is a vanishing-moments ("fast-decaying") basis vector.
	ColW ColKind = iota
	// ColV is a level-0 nonvanishing ("slow-decaying") basis vector.
	ColV
)

// ColInfo describes one column of Q.
type ColInfo struct {
	Kind   ColKind
	Level  int
	Square *quadtree.Square
	M      int // index within the square's W (or root V) block
}

// Basis is the constructed multilevel wavelet basis.
type Basis struct {
	Layout  *geom.Layout
	Tree    *quadtree.Tree
	P       int // moment order
	RankTol float64

	// Cols describes Q's columns and Columns holds their entries.
	Cols    []ColInfo
	Columns *sparse.Columns
	// wCols[level][squareID] lists global column indices of that square's
	// W block, in order.
	wCols [][][]int
	rootV []int // global column indices of the level-0 V block

	// Construction data retained for the O(n) factored form (§3.4.3):
	// per-finest-square full bases [V_s W_s], per-coarse-square
	// recombination blocks (T_p R_p), and per-square V-column counts.
	facFinest map[int]*la.Dense
	facCoarse map[int]*la.Dense
	facVCols  map[int]int

	ms *obs.Metrics // phase timers + solve counters; nil = no-op
	tr *obs.Tracer  // per-level/per-square spans; nil = no-op
}

// NewBasis builds the wavelet basis for a layout already split so that no
// contact crosses a finest-level square boundary. p is the moment order
// (the thesis found p = 2 effective). Per-square moment SVDs run on all
// CPUs; use NewBasisWorkers to control the pool size.
func NewBasis(layout *geom.Layout, tree *quadtree.Tree, p int) (*Basis, error) {
	return NewBasisWorkers(layout, tree, p, 0)
}

// NewBasisWorkers is NewBasis with an explicit worker count for the
// per-square moment-matrix SVD splits (workers <= 0 selects
// runtime.NumCPU()). Each square's split is computed into its own slot and
// the splits are stitched into Q serially in square order, so the basis is
// bitwise-identical for any worker count.
func NewBasisWorkers(layout *geom.Layout, tree *quadtree.Tree, p, workers int) (*Basis, error) {
	return NewBasisObs(layout, tree, p, workers, nil, nil)
}

// NewBasisObs is NewBasisWorkers with observability: the build is timed as
// phase "wavelet/basis" and emits one span per level
// ("wavelet/split_level") with per-square children on worker tracks, V-rank
// cuts land in the "wavelet/v_rank" numerics histogram, and extraction
// calls on the returned basis record their phases and solve counters into
// ms and trace their schedule. Nil ms/tr record nothing; the basis is
// bitwise-identical either way.
func NewBasisObs(layout *geom.Layout, tree *quadtree.Tree, p, workers int, ms *obs.Metrics, tr *obs.Tracer) (*Basis, error) {
	defer ms.Phase("wavelet/basis")()
	if p < 0 {
		return nil, fmt.Errorf("wavelet: moment order must be >= 0")
	}
	b := &Basis{Layout: layout, Tree: tree, P: p, RankTol: 1e-9, Columns: &sparse.Columns{},
		facFinest: map[int]*la.Dense{}, facCoarse: map[int]*la.Dense{}, facVCols: map[int]int{}, ms: ms, tr: tr}
	vRank := ms.Rank("wavelet/v_rank")
	L := tree.MaxLevel
	b.wCols = make([][][]int, L+1)
	for lev := 0; lev <= L; lev++ {
		b.wCols[lev] = make([][]int, len(tree.SquaresAt(lev)))
	}

	// vBasis[squareID] at the current level: dense matrix over the square's
	// local contact ordering whose columns are the V (slow-decaying) basis
	// vectors of that square, expressed in the standard contact basis.
	vBasis := make(map[int]*la.Dense)

	// Finest level: split each square's standard basis by the SVD of M_s.
	// The SVDs are independent per square, so they run on the worker pool
	// into per-square slots; the serial stitch below preserves the exact
	// column ordering of a serial build.
	type split struct {
		q  *la.Dense
		vs int
	}
	finest := tree.SquaresAt(L)
	fsplits := make([]split, len(finest))
	lsp := tr.Begin("wavelet/split_level").Arg("level", L).Arg("squares", len(finest))
	par.DoWorker(workers, len(finest), func(worker, i int) {
		s := finest[i]
		if len(s.Contacts) == 0 {
			return
		}
		ssp := lsp.ChildOn(worker+1, "wavelet/split").
			Arg("square", s.ID).Arg("contacts", len(s.Contacts))
		cx, cy := tree.Center(s)
		m := moments.Matrix(layout, s.Contacts, cx, cy, p, tree.SideAt(L))
		sigma, q := la.FullRightBasis(m)
		fsplits[i] = split{q: q, vs: la.RankByThreshold(sigma, b.RankTol, 0)}
		ssp.Arg("v_rank", fsplits[i].vs).End()
	})
	lsp.End()
	for i, s := range finest {
		sp := fsplits[i]
		if sp.q == nil {
			continue
		}
		vRank.Observe(float64(sp.vs))
		vBasis[s.ID] = sp.q.Cols2(0, sp.vs)
		b.appendW(s, sp.q.Cols2(sp.vs, len(s.Contacts)), s.Contacts)
		b.facFinest[s.ID] = sp.q
		b.facVCols[levelKey(L, s.ID)] = sp.vs
	}

	// Coarser levels: recombine child V bases. Within a level the parent
	// recombinations only read the previous level's vBasis, so they run on
	// the worker pool the same way.
	type recomb struct {
		vNew, wNew, q *la.Dense
		vs            int
	}
	for lev := L - 1; lev >= 0; lev-- {
		squares := tree.SquaresAt(lev)
		rsplits := make([]recomb, len(squares))
		rlsp := tr.Begin("wavelet/recombine_level").Arg("level", lev).Arg("squares", len(squares))
		par.DoWorker(workers, len(squares), func(worker, i int) {
			s := squares[i]
			np := len(s.Contacts)
			if np == 0 {
				return
			}
			ssp := rlsp.ChildOn(worker+1, "wavelet/recombine").
				Arg("square", s.ID).Arg("contacts", np)
			defer ssp.End()
			rowOf := make(map[int]int, np)
			for r, ci := range s.Contacts {
				rowOf[ci] = r
			}
			// Assemble V_children in the parent's contact ordering.
			var totalCols int
			children := tree.Children(s)
			childV := make([]*la.Dense, len(children))
			for ci, c := range children {
				if v := vBasis[c.ID]; v != nil {
					childV[ci] = v
					totalCols += v.Cols
				}
			}
			vch := la.NewDense(np, totalCols)
			col := 0
			for ci, c := range children {
				v := childV[ci]
				if v == nil {
					continue
				}
				for r, contactIdx := range c.Contacts {
					pr := rowOf[contactIdx]
					for j := 0; j < v.Cols; j++ {
						vch.Set(pr, col+j, v.At(r, j))
					}
				}
				col += v.Cols
			}
			if totalCols == 0 {
				return
			}
			cx, cy := tree.Center(s)
			mp := moments.Matrix(layout, s.Contacts, cx, cy, p, tree.SideAt(lev))
			mv := la.Mul(mp, vch)
			sigma, q := la.FullRightBasis(mv)
			vs := la.RankByThreshold(sigma, b.RankTol, 0)
			ssp.Arg("v_rank", vs)
			rsplits[i] = recomb{
				vNew: la.Mul(vch, q.Cols2(0, vs)),
				wNew: la.Mul(vch, q.Cols2(vs, totalCols)),
				q:    q,
				vs:   vs,
			}
		})
		rlsp.End()
		next := make(map[int]*la.Dense)
		for i, s := range squares {
			r := rsplits[i]
			if r.q == nil {
				continue
			}
			vRank.Observe(float64(r.vs))
			next[s.ID] = r.vNew
			b.appendW(s, r.wNew, s.Contacts)
			b.facCoarse[levelKey(lev, s.ID)] = r.q
			b.facVCols[levelKey(lev, s.ID)] = r.vs
		}
		vBasis = next
	}

	// Level-0 V columns join Q as the nonvanishing root block.
	if v := vBasis[0]; v != nil {
		root := tree.At(0, 0, 0)
		for j := 0; j < v.Cols; j++ {
			b.rootV = append(b.rootV, len(b.Cols))
			b.Cols = append(b.Cols, ColInfo{Kind: ColV, Level: 0, Square: root, M: j})
			b.Columns.Append(root.Contacts, v.Col(j))
		}
	}

	if len(b.Cols) != layout.N() {
		return nil, fmt.Errorf("wavelet: basis has %d columns for %d contacts", len(b.Cols), layout.N())
	}
	return b, nil
}

// appendW registers the columns of w (over the square's local contacts) as
// global Q columns.
func (b *Basis) appendW(s *quadtree.Square, w *la.Dense, contacts []int) {
	for j := 0; j < w.Cols; j++ {
		b.wCols[s.Level][s.ID] = append(b.wCols[s.Level][s.ID], len(b.Cols))
		b.Cols = append(b.Cols, ColInfo{Kind: ColW, Level: s.Level, Square: s, M: j})
		b.Columns.Append(contacts, w.Col(j))
	}
}

// N returns the basis dimension (number of contacts).
func (b *Basis) N() int { return len(b.Cols) }

// Q materializes the change-of-basis matrix as a sparse matrix whose
// columns are ordered: level-0 V block first, then W blocks level by level
// from coarse to fine, squares in quadrant-hierarchical order within each
// level (the thesis's spy-plot ordering, §3.7.1).
func (b *Basis) Q() *sparse.Matrix { return b.Columns.Matrix(b.N(), b.ColumnOrder()) }

// ColumnOrder returns the presentation ordering of columns (old index per
// new position): root V, then W per level in quadrant-hierarchical square
// order.
func (b *Basis) ColumnOrder() []int {
	var order []int
	order = append(order, b.rootV...)
	for lev := 0; lev <= b.Tree.MaxLevel; lev++ {
		for _, s := range b.Tree.QuadrantOrder(lev) {
			order = append(order, b.wCols[lev][s.ID]...)
		}
	}
	return order
}

// ColVector materializes Q column idx as a dense length-n vector.
func (b *Basis) ColVector(idx int) []float64 { return b.Columns.Vector(idx, b.N()) }

// keptPairs enumerates the (i, j) index pairs of Gw entries that the §3.5
// locality assumption keeps, with i's level <= j's level and root-V columns
// interacting with everything. Pairs are emitted once (i <= j not
// guaranteed; use both orderings when assembling a symmetric matrix).
func (b *Basis) keptPairs(emit func(i, j int)) {
	// Root V with everything (including V-V).
	for _, vi := range b.rootV {
		for j := range b.Cols {
			emit(vi, j)
		}
	}
	// W-W pairs: coarse square s (level l) with all columns at level >= l
	// whose level-l ancestor is local to s.
	for lev := 0; lev <= b.Tree.MaxLevel; lev++ {
		for _, s := range b.Tree.SquaresAt(lev) {
			cols := b.wCols[lev][s.ID]
			if len(cols) == 0 {
				continue
			}
			targets := b.Tree.LocalColumns(s, b.wCols)
			for _, ci := range cols {
				for _, tj := range targets {
					emit(ci, tj)
				}
			}
		}
	}
}
