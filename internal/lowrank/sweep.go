package lowrank

import (
	"subcouple/internal/la"
	"subcouple/internal/par"
	"subcouple/internal/quadtree"
	"subcouple/internal/sparse"
)

// Transformed is the phase-2 output: G ≈ Q·Gw·Qᵀ with orthogonal sparse Q
// (fast-decaying T columns on every level plus the level-2 slow-decaying U
// columns) and sparse Gw.
type Transformed struct {
	Rep *Rep
	Gw  *sparse.Matrix
	// Columns holds Q: the T columns level by level from fine to coarse,
	// then the level-2 U columns. A model shares it, so it is held apart
	// from the sweep state that would otherwise stay reachable.
	Columns *sparse.Columns

	tCols [][][]int // [level][squareID] → global column indices of T block
	uCols []int     // level-2 U column indices
	// sweepStates[level] holds the per-square sweep data (T/U/D) captured
	// as the upward sweep passes each level; Gw assembly reads it.
	sweepStates []map[int]*sweepSquare
}

// sweepSquare carries the per-square state of the fine-to-coarse sweep.
type sweepSquare struct {
	sd        *squareData
	T, U      *la.Dense // over the square's contacts
	D         *la.Dense // responses of [T U] columns at local contacts
	lContacts []int
	lIndex    map[int]int
	uBase     int // level 2 only: global index of the first U column

	// Telemetry captured by buildParent (observability only): the chosen
	// recombination rank and the head of the singular-value spectrum.
	rank    int
	sigHead []float64
}

// Transform runs the fine-to-coarse sweep (§4.4). No black-box solves are
// needed: everything comes from the row-basis representation.
func (r *Rep) Transform() *Transformed {
	stopSweep := r.Opt.Metrics.Phase("lowrank/sweep")
	swp := r.Opt.Trace.Begin("lowrank/sweep")
	tr := &Transformed{Rep: r, Columns: &sparse.Columns{}}
	L := r.Tree.MaxLevel
	tr.tCols = make([][][]int, L+1)
	for lev := 2; lev <= L; lev++ {
		tr.tCols[lev] = make([][]int, len(r.Tree.SquaresAt(lev)))
	}

	state := make(map[int]*sweepSquare) // squareID → state at current level

	// Finest level: U = V, T = W; D from the phase-1 local data.
	for _, sq := range r.Tree.SquaresAt(L) {
		sd := r.at(L, sq.ID)
		if sd == nil {
			continue
		}
		ss := &sweepSquare{sd: sd, T: sd.W, U: sd.V, lContacts: sd.lContacts}
		ss.lIndex = indexOf(sd.lContacts)
		nl := len(sd.lContacts)
		ss.D = la.NewDense(nl, sd.W.Cols+sd.V.Cols)
		for m := 0; m < sd.W.Cols; m++ {
			ss.D.SetCol(m, sd.GLW.Col(m))
		}
		rv := sd.rowBlock(0, nl)
		for m := 0; m < sd.V.Cols; m++ {
			ss.D.SetCol(sd.W.Cols+m, rv.Col(m))
		}
		state[sq.ID] = ss
	}

	// Sweep upward. Parent recombinations within a level only read the
	// finer level's state, so each runs independently on the worker pool;
	// slot-indexed results keep the sweep order-independent.
	sweepRank := r.Opt.Metrics.Rank("lowrank/sweep_rank")
	for lev := L; lev > 2; lev-- {
		parents := r.Tree.SquaresAt(lev - 1)
		built := make([]*sweepSquare, len(parents))
		lsp := swp.Child("lowrank/sweep_level").Arg("level", lev-1).Arg("squares", len(parents))
		par.DoWorker(r.Opt.Workers, len(parents), func(worker, i int) {
			psq := parents[i]
			psd := r.at(lev-1, psq.ID)
			if psd == nil {
				return
			}
			ssp := lsp.ChildOn(worker+1, "lowrank/sweep_square").Arg("square", psq.ID)
			built[i] = r.buildParent(psq, psd, state)
			ssp.Arg("rank", built[i].rank).Arg("sigma_head", built[i].sigHead).End()
		})
		lsp.End()
		next := make(map[int]*sweepSquare)
		for i, psq := range parents {
			if built[i] != nil {
				sweepRank.Observe(float64(built[i].rank))
				next[psq.ID] = built[i]
			}
		}
		// Record this level's T columns before discarding the state.
		tr.recordT(lev, state)
		state = next
	}
	tr.recordT(2, state)
	// Level-2 U columns.
	for _, sq := range r.Tree.SquaresAt(2) {
		ss := state[sq.ID]
		if ss == nil {
			continue
		}
		ss.uBase = tr.Columns.Len()
		for m := 0; m < ss.U.Cols; m++ {
			tr.uCols = append(tr.uCols, tr.Columns.Len())
			tr.Columns.Append(sq.Contacts, ss.U.Col(m))
		}
	}

	stopSweep()
	swp.End()

	stopAssemble := r.Opt.Metrics.Phase("lowrank/gw_assembly")
	tr.assembleGw(state)
	stopAssemble()
	return tr
}

// recordT registers the T columns of every square at a level as Q columns
// and remembers their sweep state for Gw assembly.
func (tr *Transformed) recordT(lev int, state map[int]*sweepSquare) {
	if tr.sweepStates == nil {
		tr.sweepStates = make([]map[int]*sweepSquare, tr.Rep.Tree.MaxLevel+1)
	}
	tr.sweepStates[lev] = state
	for _, sq := range tr.Rep.Tree.SquaresAt(lev) {
		ss := state[sq.ID]
		if ss == nil {
			continue
		}
		for m := 0; m < ss.T.Cols; m++ {
			tr.tCols[lev][sq.ID] = append(tr.tCols[lev][sq.ID], tr.Columns.Len())
			tr.Columns.Append(sq.Contacts, ss.T.Col(m))
		}
	}
}

// buildParent recombines the child slow-decaying bases of psq into T/U via
// the SVD of their interactive-region responses (4.27), and forms the
// parent's local response matrix D.
func (r *Rep) buildParent(psq *quadtree.Square, psd *squareData, state map[int]*sweepSquare) *sweepSquare {
	tree := r.Tree
	prows := indexOf(psq.Contacts)

	// X_p: block-diagonal child U columns in the parent's contact ordering.
	type childBlock struct {
		ss    *sweepSquare
		start int
	}
	var blocks []childBlock
	total := 0
	for _, c := range tree.Children(psq) {
		ss := state[c.ID]
		if ss == nil {
			continue
		}
		blocks = append(blocks, childBlock{ss: ss, start: total})
		total += ss.U.Cols
	}
	np := len(psq.Contacts)
	xp := la.NewDense(np, total)
	for _, b := range blocks {
		for i, c := range b.ss.sd.sq.Contacts {
			pr := prows[c]
			for j := 0; j < b.ss.U.Cols; j++ {
				xp.Set(pr, b.start+j, b.ss.U.At(i, j))
			}
		}
	}

	ss := &sweepSquare{sd: psd}
	ss.lContacts = quadtree.ContactsOf(tree.Local(psq))
	ss.lIndex = indexOf(ss.lContacts)

	// Interactive responses G_{Ip,p}·X_p via (4.16).
	iContacts := quadtree.ContactsOf(tree.Interactive(psq))
	var q *la.Dense
	var rank int
	if len(iContacts) == 0 || total == 0 {
		// Degenerate (very irregular layout): keep everything slow-decaying.
		q = la.Eye(total)
		rank = total
	} else {
		m := la.NewDense(len(iContacts), total)
		for col := 0; col < total; col++ {
			x := xp.Col(col)
			pos := 0
			for _, dsq := range tree.Interactive(psq) {
				d := r.at(psq.Level, dsq.ID)
				if d == nil {
					pos += len(dsq.Contacts)
					continue
				}
				resp := r.approxGds(d, psd, x)
				for i, v := range resp {
					m.Set(pos+i, col, v)
				}
				pos += len(dsq.Contacts)
			}
		}
		var sigma []float64
		sigma, q = la.FullRightBasis(m)
		rank = la.RankByThreshold(sigma, r.Opt.RankTol, r.Opt.MaxRank)
		ss.sigHead = sigmaHead(sigma)
	}
	ss.rank = rank
	ss.U = la.Mul(xp, q.Cols2(0, rank))
	ss.T = la.Mul(xp, q.Cols2(rank, total))

	// D: responses of [T U] at the parent's local contacts, assembled from
	// child local data (D_child, U part) plus child interactive responses.
	nl := len(ss.lContacts)
	ss.D = la.NewDense(nl, ss.T.Cols+ss.U.Cols)
	for col := 0; col < ss.T.Cols+ss.U.Cols; col++ {
		var coefs []float64
		if col < ss.T.Cols {
			coefs = q.Col(rank + col)
		} else {
			coefs = q.Col(col - ss.T.Cols)
		}
		acc := make([]float64, nl)
		for _, b := range blocks {
			child := b.ss
			ccoef := coefs[b.start : b.start+child.U.Cols]
			if allZero(ccoef) {
				continue
			}
			// Local part from the child's D (U columns live after T's).
			for i := range child.lContacts {
				var s float64
				for j, cj := range ccoef {
					if cj != 0 {
						s += child.D.At(i, child.T.Cols+j) * cj
					}
				}
				acc[ss.lIndex[child.lContacts[i]]] += s
			}
			// Interactive part via (4.16).
			zi := child.U.MulVec(ccoef)
			for _, dsq := range r.Tree.Interactive(child.sd.sq) {
				d := r.at(child.sd.sq.Level, dsq.ID)
				if d == nil {
					continue
				}
				resp := r.approxGds(d, child.sd, zi)
				for i, c := range dsq.Contacts {
					acc[ss.lIndex[c]] += resp[i]
				}
			}
		}
		ss.D.SetCol(col, acc)
	}
	return ss
}

func allZero(v []float64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

func indexOf(contacts []int) map[int]int {
	m := make(map[int]int, len(contacts))
	for i, c := range contacts {
		m[c] = i
	}
	return m
}
