package wavelet

import (
	"fmt"
	"sort"

	"subcouple/internal/la"
	"subcouple/internal/quadtree"
	"subcouple/internal/solver"
	"subcouple/internal/sparse"
)

// entryMap accumulates Gw entries with set (not sum) semantics.
type entryMap struct {
	n int
	m map[int64]float64
}

func newEntryMap(n int) *entryMap { return &entryMap{n: n, m: make(map[int64]float64)} }

func (e *entryMap) put(i, j int, v float64) {
	e.m[int64(i)*int64(e.n)+int64(j)] = v
	e.m[int64(j)*int64(e.n)+int64(i)] = v
}

func (e *entryMap) matrix() *sparse.Matrix {
	ts := make([]sparse.Triplet, 0, len(e.m))
	for k, v := range e.m {
		ts = append(ts, sparse.Triplet{Row: int(k / int64(e.n)), Col: int(k % int64(e.n)), Val: v})
	}
	return sparse.FromTriplets(e.n, e.n, ts)
}

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
	em := newEntryMap(b.N())

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
	// set semantics of entryMap make the overlap entries of symmetric pairs
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
						b.colAdd(cols[m], 1, theta)
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
			em.put(ci, cj, b.colDot(ci, y))
		}
	}
	for k, cb := range combs {
		y := ys[len(direct)+k]
		for _, sq := range cb.contributors {
			cj := b.wCols[cb.lev][sq.ID][cb.m]
			for _, ti := range b.targetColumns(sq, cb.lev) {
				em.put(ti, cj, b.colDot(ti, y))
			}
		}
	}
	ssp.End()
	return em.matrix(), nil
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
	em := newEntryMap(n)
	b.keptPairs(func(i, j int) {
		em.put(i, j, b.colDot(i, resp[j]))
	})
	return em.matrix(), nil
}

// FullGw computes the complete dense Gw = QᵀGQ from an explicit G (used to
// study thresholding against the exact transform on small examples).
func (b *Basis) FullGw(g *la.Dense) *la.Dense {
	n := b.N()
	gq := la.NewDense(n, n) // G·Q
	for j := 0; j < n; j++ {
		for _, e := range b.colVecs[j] {
			for i := 0; i < n; i++ {
				gq.Data[i*n+j] += e.val * g.At(i, e.row)
			}
		}
	}
	out := la.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var sum float64
			for _, e := range b.colVecs[i] {
				sum += e.val * gq.At(e.row, j)
			}
			out.Set(i, j, sum)
		}
	}
	return out
}

// Apply computes Q·Gw·Qᵀ·x — the sparsified operator applied to contact
// voltages.
func (b *Basis) Apply(gw *sparse.Matrix, x []float64) []float64 {
	u := make([]float64, b.N())
	for c := range b.Cols {
		u[c] = b.colDot(c, x)
	}
	w := gw.MulVec(u)
	out := make([]float64, b.N())
	for c, wc := range w {
		if wc != 0 {
			b.colAdd(c, wc, out)
		}
	}
	return out
}

// ApproxColumn returns column j of Q·Gw·Qᵀ.
func (b *Basis) ApproxColumn(gw *sparse.Matrix, j int) []float64 {
	x := make([]float64, b.N())
	x[j] = 1
	return b.Apply(gw, x)
}
