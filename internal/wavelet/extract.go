package wavelet

import (
	"fmt"
	"sort"

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
	// levels — is assembled first and issued as one SolveBatch. A Parallel
	// (or natively batched) solver then answers them concurrently. Entry
	// writes into em stay serial and in schedule order, so the result is
	// bitwise-independent of the worker count.
	var rhs [][]float64

	// Direct solves: root V columns and W columns on levels 0 and 1
	// interact with everything.
	var direct []int
	direct = append(direct, b.rootV...)
	for lev := 0; lev <= 1 && lev <= b.Tree.MaxLevel; lev++ {
		for _, s := range b.Tree.SquaresAt(lev) {
			direct = append(direct, b.wCols[lev][s.ID]...)
		}
	}
	for _, cj := range direct {
		rhs = append(rhs, b.ColVector(cj))
	}

	// Combine-solves on levels 2..L (eq. 3.24): squares of a (i mod 3,
	// j mod 3) class are far enough apart to share one solve. Classes are
	// visited in sorted key order — Go map iteration is randomized, and the
	// set semantics of SymSet make the overlap entries of symmetric pairs
	// order-sensitive, so a fixed order is required for reproducibility.
	type combined struct {
		lev, m       int
		contributors []*quadtree.Square
	}
	var combs []combined
	for lev := 2; lev <= b.Tree.MaxLevel; lev++ {
		classes := make(map[[2]int][]*quadtree.Square)
		for _, sq := range b.Tree.SquaresAt(lev) {
			if len(b.wCols[lev][sq.ID]) == 0 {
				continue
			}
			a, c := quadtree.Mod3Class(sq)
			classes[[2]int{a, c}] = append(classes[[2]int{a, c}], sq)
		}
		keys := make([][2]int, 0, len(classes))
		for k := range classes {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(x, y int) bool {
			if keys[x][0] != keys[y][0] {
				return keys[x][0] < keys[y][0]
			}
			return keys[x][1] < keys[y][1]
		})
		for _, key := range keys {
			members := classes[key]
			csp := b.tr.Begin("wavelet/class").
				Arg("level", lev).Arg("class", fmt.Sprintf("%d,%d", key[0], key[1])).
				Arg("members", len(members))
			maxm := 0
			for _, sq := range members {
				if n := len(b.wCols[lev][sq.ID]); n > maxm {
					maxm = n
				}
			}
			for m := 0; m < maxm; m++ {
				theta := make([]float64, b.N())
				var contributors []*quadtree.Square
				for _, sq := range members {
					cols := b.wCols[lev][sq.ID]
					if m < len(cols) {
						b.Columns.AddTo(cols[m], 1, theta)
						contributors = append(contributors, sq)
					}
				}
				if len(contributors) == 0 {
					continue
				}
				rhs = append(rhs, theta)
				combs = append(combs, combined{lev: lev, m: m, contributors: contributors})
			}
			csp.Arg("solves", maxm).End()
		}
	}

	b.ms.Event("wavelet/solves_direct").Add(int64(len(direct)))
	b.ms.Event("wavelet/solves_combined").Add(int64(len(combs)))
	xsp.Arg("solves_direct", len(direct)).Arg("solves_combined", len(combs))
	ys, err := solver.SolveBatch(s, rhs)
	if err != nil {
		return nil, err
	}
	ssp := xsp.Child("wavelet/scatter")
	for k, cj := range direct {
		y := ys[k]
		for ci := range b.Cols {
			gw.Put(ci, cj, b.Columns.Dot(ci, y))
		}
	}
	for k, cb := range combs {
		y := ys[len(direct)+k]
		for _, sq := range cb.contributors {
			cj := b.wCols[cb.lev][sq.ID][cb.m]
			for _, ti := range b.Tree.LocalColumns(sq, b.wCols) {
				gw.Put(ti, cj, b.Columns.Dot(ti, y))
			}
		}
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
