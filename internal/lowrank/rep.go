// Package lowrank implements the Chapter 4 sparsification algorithm: a
// two-phase low-rank method that, unlike the wavelet method, uses
// information from actually applying G to build the basis.
//
// Phase 1 (coarse-to-fine, §4.3) builds a multilevel row-basis
// representation: for every square s, an orthonormal row basis V_s of the
// interactive interaction G_{Is,s} obtained by SVD of sampled responses
// (one random sample vector per square, shared across the interactive
// squares that see it, §4.3.3), plus the responses (G_{Ps,s}·V_s)^(r) at
// the proximity region P_s = I_s ∪ L_s. On finer levels both samples and
// row-basis responses are obtained without new full-cost solves per column
// by the splitting method (4.22) against the parent row basis, the
// combine-solves technique of §3.5, and the symmetry-exploiting refinement
// (4.24). Finest-level local blocks are formed by (4.26).
//
// Phase 2 (fine-to-coarse, §4.4, see sweep.go) recombines slow-decaying
// child bases by SVDs of their interactive responses into an orthogonal
// wavelet-structured Q and a sparse Gw with G ≈ Q·Gw·Qᵀ.
package lowrank

import (
	"fmt"
	"math/rand"

	"subcouple/internal/geom"
	"subcouple/internal/la"
	"subcouple/internal/obs"
	"subcouple/internal/par"
	"subcouple/internal/quadtree"
	"subcouple/internal/solver"
)

// Options configures the low-rank method.
type Options struct {
	// MaxRank caps the row-basis rank per square (thesis: 6, matching the
	// p=2 moment count).
	MaxRank int
	// RankTol keeps singular values >= RankTol·σmax (thesis: 1/100).
	RankTol float64
	// CombineSolves groups well-separated vectors into single black-box
	// calls (§3.5). Disabling it is the ablation: one solve per vector.
	CombineSolves bool
	// Refine enables the symmetry-exploiting refinement (4.16)/(4.24); the
	// thesis reports "a dramatic improvement in accuracy at a constant
	// factor (<2) increase" from it.
	Refine bool
	// Seed drives the random sample vectors. Each square draws from its own
	// stream derived from (Seed, level, square id), so samples do not depend
	// on the order squares are visited in.
	Seed int64
	// Workers sizes the worker pool for per-square CPU work (SVDs, response
	// separation) and is passed down with batched black-box solves;
	// <= 0 selects runtime.NumCPU(). Results are identical for any value.
	Workers int
	// Metrics, when non-nil, receives per-phase wall times, solve counters
	// and rank cuts for the build and the fine-to-coarse transform.
	// Recording never changes the representation.
	Metrics *obs.Metrics
	// Trace, when non-nil, receives per-level and per-square spans
	// (row_basis/respond/sweep/gw_assembly) with rank and spectrum-head
	// args. Tracing never changes the representation either.
	Trace *obs.Tracer
}

// DefaultOptions returns the thesis's settings.
func DefaultOptions() Options {
	return Options{MaxRank: 6, RankTol: 0.01, CombineSolves: true, Refine: true, Seed: 1}
}

// squareRNG returns the dedicated sample stream of one square: a splitmix64
// mix of the global seed with the square's (level, id) coordinates. Streams
// are decoupled from visiting order, which is what lets sample generation
// run per-square on a worker pool without changing a single bit of output.
func squareRNG(seed int64, level, id int) *rand.Rand {
	z := uint64(seed) ^ 0x9e3779b97f4a7c15*uint64(level+1) ^ 0xbf58476d1ce4e5b9*uint64(id+1)
	// splitmix64 finalizer
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z)))
}

// squareData holds the per-square pieces of the row-basis representation.
type squareData struct {
	sq *quadtree.Square
	V  *la.Dense // n_s × c_s row basis (orthonormal columns)
	R  *la.Dense // n_{P_s} × c_s responses (G_{Ps,s}·V_s)^(r)

	pContacts []int                    // row ordering of R: contacts of P_s
	pIndex    map[int]int              // contact id → row of R
	pRow      map[*quadtree.Square]int // square of P_s → its first row of R

	// Finest level only:
	W         *la.Dense // orthogonal complement of V_s in the square
	GLW       *la.Dense // n_{Ls} × w_s refined responses (G_{Ls,s}·W_s)^(c)
	GL        *la.Dense // n_{Ls} × n_s local block (G_{Ls,s})^(f), eq. 4.26
	lContacts []int     // row ordering of GLW/GL: contacts of L_s
}

// Rep is the multilevel row-basis representation of G.
type Rep struct {
	Layout *geom.Layout
	Tree   *quadtree.Tree
	Opt    Options

	data [][]*squareData // [level][squareID]; nil entries for empty squares
}

// at returns the square data (nil for empty squares or levels < 2).
func (r *Rep) at(level, id int) *squareData {
	if level < 2 || level >= len(r.data) {
		return nil
	}
	return r.data[level][id]
}

// restrict gathers y at the given contact indices.
func restrict(y []float64, contacts []int) []float64 {
	out := make([]float64, len(contacts))
	for i, c := range contacts {
		out[i] = y[c]
	}
	return out
}

// rowsFor returns the rows of sd.R at q's contacts, which must lie in P_s.
// R's rows follow P_s square by square, so they are one block, returned in
// place.
func (sd *squareData) rowsFor(q *quadtree.Square) *la.Dense {
	row, ok := sd.pRow[q]
	if !ok {
		panic(fmt.Sprintf("lowrank: square (%d,%d,l%d) not in P_s of square (%d,%d,l%d)",
			q.I, q.J, q.Level, sd.sq.I, sd.sq.J, sd.sq.Level))
	}
	return sd.rowBlock(row, len(q.Contacts))
}

// rowBlock returns rows [row, row+n) of sd.R as a view sharing its storage.
// Rows [0, len(L_s contacts)) are L_s's, since P_s lists L_s first.
func (sd *squareData) rowBlock(row, n int) *la.Dense {
	c := sd.R.Cols
	return la.NewDenseFrom(n, c, sd.R.Data[row*c:(row+n)*c])
}

// approxGds evaluates the (4.16) approximation of G_{d,s}·x for interactive
// squares d ∈ I_s, where x is a voltage vector on s's contacts:
//
//	G_{d,s}·x ≈ (G_{ds}V_s)⁽ʳ⁾·V_sᵀx + V_d·((G_{sd}V_d)⁽ʳ⁾)ᵀ·(x − V_sV_sᵀx).
//
// Without refinement only the first term is used (the "strong assumption"
// 4.7).
func (r *Rep) approxGds(d, s *squareData, x []float64) []float64 {
	coef := s.V.MulVecT(x)
	out := s.rowsFor(d.sq).MulVec(coef)
	if !r.Opt.Refine {
		return out
	}
	o := make([]float64, len(x))
	copy(o, x)
	back := s.V.MulVec(coef)
	la.Axpy(-1, back, o)
	alpha := d.rowsFor(s.sq).MulVecT(o)
	t2 := d.V.MulVec(alpha)
	la.Axpy(1, t2, out)
	return out
}

// pending is one vector awaiting a response over P_s.
type pending struct {
	sd  *squareData
	vec []float64 // over sd.sq.Contacts
	out []float64 // response over sd.pContacts, filled by the driver
}

// Build runs phase 1 against the black-box solver.
func Build(layout *geom.Layout, tree *quadtree.Tree, s solver.Solver, opt Options) (*Rep, error) {
	if s.N() != layout.N() {
		return nil, fmt.Errorf("lowrank: solver has %d contacts, layout %d", s.N(), layout.N())
	}
	if opt.MaxRank <= 0 {
		opt.MaxRank = 6
	}
	if opt.RankTol <= 0 {
		opt.RankTol = 0.01
	}
	r := &Rep{Layout: layout, Tree: tree, Opt: opt}
	// Register the clip counter up front so "never clipped" shows as an
	// explicit zero in the report's numerics section.
	clipped := opt.Metrics.Dropped("lowrank/rank_clipped")
	rowRank := opt.Metrics.Rank("lowrank/row_rank")
	stopRowBasis := opt.Metrics.Phase("lowrank/row_basis")
	L := tree.MaxLevel
	r.data = make([][]*squareData, L+1)
	for lev := 2; lev <= L; lev++ {
		r.data[lev] = make([]*squareData, len(tree.SquaresAt(lev)))
		for _, sq := range tree.SquaresAt(lev) {
			if len(sq.Contacts) == 0 {
				continue
			}
			sd := &squareData{sq: sq, pRow: map[*quadtree.Square]int{}}
			for _, q := range tree.Proximity(sq) {
				sd.pRow[q] = len(sd.pContacts)
				sd.pContacts = append(sd.pContacts, q.Contacts...)
			}
			sd.pIndex = make(map[int]int, len(sd.pContacts))
			for i, c := range sd.pContacts {
				sd.pIndex[c] = i
			}
			r.data[lev][sq.ID] = sd
		}
	}
	for lev := 2; lev <= L; lev++ {
		// 1. Random sample vector per square (thesis: MATLAB randn), drawn
		// from the square's own seeded stream.
		samples := map[int]*pending{} // squareID → sample
		for _, sq := range tree.SquaresAt(lev) {
			sd := r.at(lev, sq.ID)
			if sd == nil {
				continue
			}
			rng := squareRNG(opt.Seed, lev, sq.ID)
			v := make([]float64, len(sq.Contacts))
			for i := range v {
				v[i] = rng.NormFloat64()
			}
			la.Scale(1/la.Norm2(v), v)
			samples[sq.ID] = &pending{sd: sd, vec: v}
		}
		// 2. Responses to the samples.
		var batch []*pending
		for _, sq := range tree.SquaresAt(lev) {
			if p := samples[sq.ID]; p != nil {
				batch = append(batch, p)
			}
		}
		if err := r.respond(s, lev, batch); err != nil {
			return nil, err
		}
		// 3. Row basis per square from the SVD of sampled interactions.
		// The SVDs are independent per square: fan them out.
		levSquares := tree.SquaresAt(lev)
		sigmas := make([][]float64, len(levSquares))
		lsp := opt.Trace.Begin("lowrank/row_basis_level").Arg("level", lev).Arg("squares", len(levSquares))
		par.DoWorker(opt.Workers, len(levSquares), func(worker, i int) {
			sq := levSquares[i]
			sd := r.at(lev, sq.ID)
			if sd == nil {
				return
			}
			ssp := lsp.ChildOn(worker+1, "lowrank/row_basis").
				Arg("square", sq.ID).Arg("contacts", len(sq.Contacts))
			ns := len(sq.Contacts)
			var cols [][]float64
			for _, t := range tree.Interactive(sq) {
				ps := samples[t.ID]
				if ps == nil {
					continue
				}
				// Response of t's sample at s's contacts: s ∈ P_t.
				col := make([]float64, ns)
				for i, c := range sq.Contacts {
					col[i] = ps.out[ps.sd.pIndex[c]]
				}
				cols = append(cols, col)
			}
			sd.V, sigmas[i] = leftBasis(cols, ns, opt.RankTol, opt.MaxRank)
			ssp.Arg("rank", sd.V.Cols).Arg("sigma_head", sigmaHead(sigmas[i])).End()
		})
		lsp.End()
		// Rank telemetry, committed serially in square order: the chosen cut
		// per square plus how often the MaxRank cap clipped the spectrum.
		for i, sq := range levSquares {
			sd := r.at(lev, sq.ID)
			if sd == nil {
				continue
			}
			rowRank.Observe(float64(sd.V.Cols))
			if la.RankByThreshold(sigmas[i], opt.RankTol, 0) > sd.V.Cols {
				clipped.Inc()
			}
		}
		// 4. Responses to the row-basis columns, by the same machinery.
		var vbatch []*pending
		maxc := 0
		for _, sq := range tree.SquaresAt(lev) {
			if sd := r.at(lev, sq.ID); sd != nil && sd.V.Cols > maxc {
				maxc = sd.V.Cols
			}
		}
		for m := 0; m < maxc; m++ {
			for _, sq := range tree.SquaresAt(lev) {
				sd := r.at(lev, sq.ID)
				if sd == nil || m >= sd.V.Cols {
					continue
				}
				vbatch = append(vbatch, &pending{sd: sd, vec: sd.V.Col(m)})
			}
		}
		if err := r.respond(s, lev, vbatch); err != nil {
			return nil, err
		}
		// Gather responses into R (column order restored per square).
		counts := map[int]int{}
		for _, p := range vbatch {
			sd := p.sd
			if sd.R == nil {
				sd.R = la.NewDense(len(sd.pContacts), sd.V.Cols)
			}
			sd.R.SetCol(counts[sd.sq.ID], p.out)
			counts[sd.sq.ID]++
		}
		for _, sq := range tree.SquaresAt(lev) {
			if sd := r.at(lev, sq.ID); sd != nil && sd.R == nil {
				sd.R = la.NewDense(len(sd.pContacts), 0)
			}
		}
	}

	stopRowBasis()

	stopFinest := opt.Metrics.Phase("lowrank/finest_local")
	err := r.buildFinestLocal(s)
	stopFinest()
	if err != nil {
		return nil, err
	}
	return r, nil
}

// leftBasis returns an orthonormal basis of the dominant left singular
// space of the matrix whose columns are cols (each of length ns), along
// with the full singular-value spectrum (for rank/clip telemetry).
func leftBasis(cols [][]float64, ns int, tol float64, cap int) (*la.Dense, []float64) {
	if len(cols) == 0 || ns == 0 {
		return la.NewDense(ns, 0), nil
	}
	x := la.NewDense(ns, len(cols))
	for j, c := range cols {
		x.SetCol(j, c)
	}
	var sigma []float64
	var u *la.Dense
	if x.Rows >= x.Cols {
		svd := la.JacobiSVD(x)
		sigma, u = svd.Sigma, svd.U
	} else {
		svd := la.JacobiSVD(x.T())
		sigma, u = svd.Sigma, svd.V
	}
	rank := la.RankByThreshold(sigma, tol, cap)
	return u.Cols2(0, rank), sigma
}

// sigmaHead returns the leading entries of a singular-value spectrum (at
// most 4) for span args: enough to see the decay without bloating the trace.
func sigmaHead(sigma []float64) []float64 {
	if len(sigma) > 4 {
		sigma = sigma[:4]
	}
	return append([]float64{}, sigma...)
}

// respond fills out = (G_{Ps,s}·vec)^(r) for every pending vector at the
// given level, using direct solves on level 2 (or when combine-solves is
// off) and the splitting method + combine-solves on finer levels. A
// solver.Combined schedule issues the phase's black-box calls in one
// SolveBatch. The per-vector response separation runs on the worker pool;
// outputs land in per-pending slots so the result is bitwise identical for
// any worker count.
func (r *Rep) respond(s solver.Solver, lev int, batch []*pending) error {
	defer r.Opt.Metrics.Phase("lowrank/respond")()
	rsp := r.Opt.Trace.Begin("lowrank/respond").Arg("level", lev).Arg("vectors", len(batch))
	defer rsp.End()
	if lev == 2 || !r.Opt.CombineSolves {
		var sched solver.Combined[*pending]
		for i, p := range batch {
			sched.Add([4]int{i}, p)
		}
		r.Opt.Metrics.Event("lowrank/solves_respond").Add(int64(sched.Len()))
		rsp.Arg("solves", sched.Len())
		groups, err := sched.Solve(s, func(theta []float64, p *pending) {
			for j, c := range p.sd.sq.Contacts {
				theta[c] = p.vec[j]
			}
		})
		if err != nil {
			return err
		}
		for _, g := range groups {
			p := g.Members[0]
			p.out = restrict(g.Y, p.sd.pContacts)
		}
		return nil
	}
	// Group by (parent mod-3 class, child index, per-square sequence
	// number): members' parents are >= 3 apart, so the o-vectors'
	// supports and local target regions never collide (§3.5, Fig 3-5).
	type split struct {
		p    *pending
		par  *squareData
		coef []float64 // V_pᵀ·v
		o    []float64 // v − V_p·coef, over parent contacts
		y    []float64 // the group's combined response
	}
	var sched solver.Combined[*split]
	seq := map[int]int{}
	for _, p := range batch {
		sq := p.sd.sq
		psq := r.Tree.Parent(sq)
		a, b := quadtree.Mod3Class(psq)
		child := (sq.I%2)<<1 | sq.J%2
		sched.Add([4]int{a, b, child, seq[sq.ID]}, &split{p: p, par: r.at(lev-1, psq.ID)})
		seq[sq.ID]++
	}
	r.Opt.Metrics.Event("lowrank/solves_respond").Add(int64(sched.Len()))
	rsp.Arg("solves", sched.Len())
	// Split each vector against its parent basis and accumulate the
	// o-vectors of a group into its theta (disjoint supports within a
	// group).
	groups, err := sched.Solve(s, func(theta []float64, sp *split) {
		parSq := sp.par.sq
		// Zero-pad into the parent's contact ordering.
		v := make([]float64, len(parSq.Contacts))
		prows := make(map[int]int, len(parSq.Contacts))
		for i, c := range parSq.Contacts {
			prows[c] = i
		}
		for i, c := range sp.p.sd.sq.Contacts {
			v[prows[c]] = sp.p.vec[i]
		}
		sp.coef = sp.par.V.MulVecT(v)
		sp.o = v
		la.Axpy(-1, sp.par.V.MulVec(sp.coef), sp.o)
		for i, c := range parSq.Contacts {
			theta[c] += sp.o[i]
		}
	})
	if err != nil {
		return err
	}
	var splits []*split
	for _, g := range groups {
		for _, sp := range g.Members {
			sp.y = g.Y
			splits = append(splits, sp)
		}
	}
	// Separate each response. Each split touches only its own pending's out
	// slot, so this fans out cleanly.
	par.Do(r.Opt.Workers, len(splits), func(i int) {
		sp := splits[i]
		p := sp.p
		out := make([]float64, len(p.sd.pContacts))
		// Coarse part: R_p·coef restricted to P_s (= contacts of L_p).
		coarse := sp.par.R.MulVec(sp.coef)
		for i, c := range p.sd.pContacts {
			out[i] = coarse[sp.par.pIndex[c]]
		}
		// Fine part: refined G_{q,p}·o for every parent-level local q.
		for _, qsq := range r.Tree.Local(sp.par.sq) {
			q := r.at(lev-1, qsq.ID)
			if q == nil {
				continue
			}
			t := r.localResponse(q, sp.par.sq, sp.o, sp.y)
			for i, c := range qsq.Contacts {
				out[p.sd.pIndex[c]] += t[i]
			}
		}
		p.out = out
	})
	return nil
}

// localResponse returns y at the contacts of q, a square local to s, where
// y is the response to a vector x on s's contacts. With refinement on it
// applies the (4.24) correction through q's row basis:
//
//	y_q + V_q·((G_{s,q}V_q)⁽ʳ⁾ᵀ·x − V_qᵀ·y_q).
func (r *Rep) localResponse(q *squareData, s *quadtree.Square, x, y []float64) []float64 {
	t := restrict(y, q.sq.Contacts)
	if r.Opt.Refine {
		alpha := q.rowsFor(s).MulVecT(x)
		la.Axpy(-1, q.V.MulVecT(t), alpha)
		la.Axpy(1, q.V.MulVec(alpha), t)
	}
	return t
}

// buildFinestLocal forms W_s, the refined local W responses, and the local
// blocks (4.26) on the finest level.
func (r *Rep) buildFinestLocal(s solver.Solver) error {
	L := r.Tree.MaxLevel
	// W = orthogonal complement of V per square: independent SVDs, fanned
	// out with the results committed serially in square order.
	finest := r.Tree.SquaresAt(L)
	wsp := r.Opt.Trace.Begin("lowrank/w_basis").Arg("level", L).Arg("squares", len(finest))
	par.DoWorker(r.Opt.Workers, len(finest), func(worker, i int) {
		sq := finest[i]
		sd := r.at(L, sq.ID)
		if sd == nil {
			return
		}
		ssp := wsp.ChildOn(worker+1, "lowrank/w_complement").Arg("square", sq.ID)
		sd.lContacts = quadtree.ContactsOf(r.Tree.Local(sq))
		_, q := la.FullRightBasis(sd.V.T())
		sd.W = q.Cols2(sd.V.Cols, len(sq.Contacts))
		sd.GLW = la.NewDense(len(sd.lContacts), sd.W.Cols)
		ssp.Arg("w_cols", sd.W.Cols).End()
	})
	wsp.End()
	// Respond to W columns, grouped by (mod-3 class at the finest level,
	// column index) — W vectors live on their own square, so same-level
	// spacing suffices — or one group per column without combine-solves.
	type witem struct {
		sd *squareData
		m  int
		y  []float64 // the combined response of the item's group
	}
	var sched solver.Combined[*witem]
	for _, sq := range finest {
		sd := r.at(L, sq.ID)
		if sd == nil {
			continue
		}
		a, b := quadtree.Mod3Class(sq)
		for m := 0; m < sd.W.Cols; m++ {
			key := [4]int{a, b, m}
			if !r.Opt.CombineSolves {
				key = [4]int{sched.Len()} // the k-th column, alone
			}
			sched.Add(key, &witem{sd: sd, m: m})
		}
	}
	r.Opt.Metrics.Event("lowrank/solves_w").Add(int64(sched.Len()))
	groups, err := sched.Solve(s, func(theta []float64, it *witem) {
		for i, c := range it.sd.sq.Contacts {
			theta[c] += it.sd.W.At(i, it.m)
		}
	})
	if err != nil {
		return err
	}
	var answered []*witem
	for _, g := range groups {
		for _, it := range g.Members {
			it.y = g.Y
			answered = append(answered, it)
		}
	}
	// Separate each W response; every item owns its GLW column, so the
	// separation fans out.
	par.Do(r.Opt.Workers, len(answered), func(idx int) {
		it := answered[idx]
		sd := it.sd
		out := make([]float64, len(sd.lContacts))
		w := sd.W.Col(it.m)
		pos := 0
		for _, qsq := range r.Tree.Local(sd.sq) {
			q := r.at(L, qsq.ID)
			if q == nil {
				continue
			}
			pos += copy(out[pos:], r.localResponse(q, sd.sq, w, it.y))
		}
		sd.GLW.SetCol(it.m, out)
	})
	// Local blocks (4.26): (G_Ls,s)^(f) = (G V_s)^(r)·V_sᵀ + (G W_s)^(c)·W_sᵀ.
	bsp := r.Opt.Trace.Begin("lowrank/local_block").Arg("level", L).Arg("squares", len(finest))
	par.Do(r.Opt.Workers, len(finest), func(i int) {
		sd := r.at(L, finest[i].ID)
		if sd == nil {
			return
		}
		rv := sd.rowBlock(0, len(sd.lContacts)) // (G_{Ls,s}V_s)^(r)
		sd.GL = la.Mul(rv, sd.V.T())
		if sd.W.Cols > 0 {
			sd.GL = la.Add(sd.GL, la.Mul(sd.GLW, sd.W.T()))
		}
	})
	bsp.End()
	return nil
}

// Apply evaluates the row-basis representation on a voltage vector
// (§4.3.2 pseudocode): interactive interactions per square per level via
// (4.16), plus finest-level local blocks.
func (r *Rep) Apply(v []float64) []float64 {
	n := r.Layout.N()
	out := make([]float64, n)
	L := r.Tree.MaxLevel
	for lev := 2; lev <= L; lev++ {
		for _, sq := range r.Tree.SquaresAt(lev) {
			sd := r.at(lev, sq.ID)
			if sd == nil {
				continue
			}
			vs := restrict(v, sq.Contacts)
			for _, dsq := range r.Tree.Interactive(sq) {
				d := r.at(lev, dsq.ID)
				if d == nil {
					continue
				}
				id := r.approxGds(d, sd, vs)
				for i, c := range dsq.Contacts {
					out[c] += id[i]
				}
			}
		}
	}
	for _, sq := range r.Tree.SquaresAt(L) {
		sd := r.at(L, sq.ID)
		if sd == nil {
			continue
		}
		vs := restrict(v, sq.Contacts)
		il := sd.GL.MulVec(vs)
		for i, c := range sd.lContacts {
			out[c] += il[i]
		}
	}
	return out
}

// N returns the contact count.
func (r *Rep) N() int { return r.Layout.N() }
