package wavelet

import (
	"fmt"

	"subcouple/internal/la"
	"subcouple/internal/quadtree"
	"subcouple/internal/solver"
	"subcouple/internal/sparse"
)

// ExtractCombined extracts Gws = (QᵀGQ restricted to the §3.5 locality
// pattern) using the combine-solves technique: root-V and level-0/1 W
// columns are solved directly; on each level >= 2 the W columns of squares
// in the same (i mod 3, j mod 3) class are summed into one black-box call
// (eq. 3.24) and the responses separated by locality. The number of solves
// is O(log n) for reasonably regular layouts.
func (b *Basis) ExtractCombined(s solver.Solver) (*sparse.Matrix, error) {
	if s.N() != b.N() {
		return nil, fmt.Errorf("wavelet: solver has %d contacts, basis %d", s.N(), b.N())
	}
	defer b.ms.Phase("wavelet/extract")()
	xsp := b.tr.Begin("wavelet/extract_combined").Arg("n", b.N())
	defer xsp.End()
	gw := sparse.NewSymSet(b.N())

	// Every black-box call of the algorithm is independent of every other,
	// so the whole schedule — direct solves plus all combine-solves on all
	// levels — is issued as one SolveBatch. A Parallel (or natively
	// batched) solver then answers them concurrently. Entry writes into gw
	// stay serial and in group order: the set semantics of SymSet make the
	// overlap entries of symmetric pairs order-sensitive, so a fixed order
	// is what makes the result bitwise-independent of the worker count.
	type member struct {
		col int
		sq  *quadtree.Square // nil for a direct column
	}
	var sched solver.Combined[member]

	// Direct solves, keyed {0, k} for the k-th: root V columns and W
	// columns on levels 0 and 1 interact with everything.
	addDirect := func(cols []int) {
		for _, cj := range cols {
			sched.Add([4]int{0, sched.Len()}, member{col: cj})
		}
	}
	addDirect(b.rootV)
	for lev := 0; lev <= 1 && lev <= b.Tree.MaxLevel; lev++ {
		for _, sq := range b.Tree.SquaresAt(lev) {
			addDirect(b.wCols[lev][sq.ID])
		}
	}
	direct := sched.Len()

	// Combine-solves on levels 2..L (eq. 3.24), keyed {level, i mod 3,
	// j mod 3, m}: the m-th W columns of squares in one class are far
	// enough apart to share one solve.
	for lev := 2; lev <= b.Tree.MaxLevel; lev++ {
		for _, sq := range b.Tree.SquaresAt(lev) {
			a, c := quadtree.Mod3Class(sq)
			for m, cj := range b.wCols[lev][sq.ID] {
				sched.Add([4]int{lev, a, c, m}, member{col: cj, sq: sq})
			}
		}
	}

	combined := sched.Len() - direct
	b.ms.Event("wavelet/solves_direct").Add(int64(direct))
	b.ms.Event("wavelet/solves_combined").Add(int64(combined))
	xsp.Arg("solves_direct", direct).Arg("solves_combined", combined)
	groups, err := sched.Solve(s, func(theta []float64, m member) {
		b.Columns.AddTo(m.col, 1, theta)
	})
	if err != nil {
		return nil, err
	}
	ssp := xsp.Child("wavelet/scatter")
	for _, g := range groups[:direct] {
		cj := g.Members[0].col
		for ci := range b.Cols {
			gw.Put(ci, cj, b.Columns.Dot(ci, g.Y))
		}
	}
	// A class's groups are consecutive, m = 0, 1, ..., and every member
	// square of the class has an m = 0 column; one span covers each class.
	for rest := groups[direct:]; len(rest) > 0; {
		k := 1
		for k < len(rest) && rest[k].Key[3] != 0 {
			k++
		}
		key := rest[0].Key
		csp := ssp.Child("wavelet/class").
			Arg("level", key[0]).Arg("class", fmt.Sprintf("%d,%d", key[1], key[2])).
			Arg("members", len(rest[0].Members)).Arg("solves", k)
		for _, g := range rest[:k] {
			for _, mb := range g.Members {
				for _, ti := range b.Tree.LocalColumns(mb.sq, b.wCols) {
					gw.Put(ti, mb.col, b.Columns.Dot(ti, g.Y))
				}
			}
		}
		csp.End()
		rest = rest[k:]
	}
	ssp.End()
	return gw.Matrix(), nil
}

// ExtractDirect extracts the same locality-restricted Gws but with one
// black-box solve per basis column (n solves): the combine-solves ablation.
// Kept entries are exact inner products qᵢᵀ·G·qⱼ.
func (b *Basis) ExtractDirect(s solver.Solver) (*sparse.Matrix, error) {
	if s.N() != b.N() {
		return nil, fmt.Errorf("wavelet: solver has %d contacts, basis %d", s.N(), b.N())
	}
	defer b.ms.Phase("wavelet/extract")()
	n := b.N()
	b.ms.Event("wavelet/solves_direct").Add(int64(n))
	resp := make([][]float64, n)
	// Chunked batches keep the in-flight right-hand sides bounded while
	// still feeding a parallel solver; slot-indexed responses keep the
	// result independent of the worker count.
	const chunk = 128
	for base := 0; base < n; base += chunk {
		end := base + chunk
		if end > n {
			end = n
		}
		vs := make([][]float64, end-base)
		for k := range vs {
			vs[k] = b.ColVector(base + k)
		}
		ys, err := solver.SolveBatch(s, vs)
		if err != nil {
			return nil, err
		}
		copy(resp[base:end], ys)
	}
	gw := sparse.NewSymSet(n)
	b.keptPairs(func(i, j int) {
		gw.Put(i, j, b.Columns.Dot(i, resp[j]))
	})
	return gw.Matrix(), nil
}

// FullGw computes the complete dense Gw = QᵀGQ from an explicit G (used to
// study thresholding against the exact transform on small examples).
func (b *Basis) FullGw(g *la.Dense) *la.Dense {
	n := b.N()
	gq := la.NewDense(n, n) // G·Q
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			gq.Set(i, j, b.Columns.Dot(j, g.Row(i)))
		}
	}
	out := la.NewDense(n, n)
	for j := 0; j < n; j++ {
		gqj := gq.Col(j)
		for i := 0; i < n; i++ {
			out.Set(i, j, b.Columns.Dot(i, gqj))
		}
	}
	return out
}
