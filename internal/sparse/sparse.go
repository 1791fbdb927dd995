// Package sparse holds the sparse forms both sparsification methods build
// for G ≈ Q·Gw·Qᵀ: the compressed sparse row Matrix (Gw, and Q for spy
// plots), the column store Columns that holds Q column by column, the
// symmetric assembler SymSet that collects Gw's kept entries, and
// thresholding — the "drop small entries of Gw" step that trades accuracy
// for sparsity.
package sparse

import (
	"fmt"
	"math"
	"sort"
)

// Triplet is one (row, col, value) entry.
type Triplet struct {
	Row, Col int
	Val      float64
}

// Matrix is a CSR sparse matrix.
type Matrix struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Val        []float64
}

// FromTriplets builds a CSR matrix, summing duplicate entries and dropping
// exact zeros. The caller's slice is left untouched: construction sorts a
// private copy, so ts can be reused (or concurrently read) afterwards.
func FromTriplets(rows, cols int, ts []Triplet) *Matrix {
	for _, t := range ts {
		if t.Row < 0 || t.Row >= rows || t.Col < 0 || t.Col >= cols {
			panic(fmt.Sprintf("sparse: triplet (%d,%d) out of %dx%d", t.Row, t.Col, rows, cols))
		}
	}
	ts = append([]Triplet(nil), ts...)
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Row != ts[j].Row {
			return ts[i].Row < ts[j].Row
		}
		return ts[i].Col < ts[j].Col
	})
	m := &Matrix{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for i := 0; i < len(ts); {
		j := i
		v := 0.0
		for j < len(ts) && ts[j].Row == ts[i].Row && ts[j].Col == ts[i].Col {
			v += ts[j].Val
			j++
		}
		if v != 0 {
			m.ColIdx = append(m.ColIdx, ts[i].Col)
			m.Val = append(m.Val, v)
			m.RowPtr[ts[i].Row+1]++
		}
		i = j
	}
	for r := 0; r < rows; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	return m
}

// NNZ returns the number of stored nonzeros.
func (m *Matrix) NNZ() int { return len(m.Val) }

// Sparsity returns the thesis's sparsity factor: total entries over
// nonzeros (Table 3.1: "the ratio of n² to the number of nonzeros").
func (m *Matrix) Sparsity() float64 {
	if m.NNZ() == 0 {
		return math.Inf(1)
	}
	return float64(m.Rows) * float64(m.Cols) / float64(m.NNZ())
}

// MulVec returns m·x.
func (m *Matrix) MulVec(x []float64) []float64 {
	y := make([]float64, m.Rows)
	m.MulVecInto(y, x)
	return y
}

// MulVecInto computes y = m·x in place; y must have length m.Rows and may
// not alias x. Row sums accumulate in CSR order, so the result is bitwise
// identical to MulVec.
func (m *Matrix) MulVecInto(y, x []float64) {
	if len(x) != m.Cols {
		panic("sparse: MulVec dimension mismatch")
	}
	if len(y) != m.Rows {
		panic("sparse: MulVecInto output length mismatch")
	}
	for r := 0; r < m.Rows; r++ {
		var s float64
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			s += m.Val[k] * x[m.ColIdx[k]]
		}
		y[r] = s
	}
}

// Threshold returns a copy with entries |v| < t dropped.
func (m *Matrix) Threshold(t float64) *Matrix {
	out := &Matrix{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int, m.Rows+1)}
	for r := 0; r < m.Rows; r++ {
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			if math.Abs(m.Val[k]) >= t {
				out.ColIdx = append(out.ColIdx, m.ColIdx[k])
				out.Val = append(out.Val, m.Val[k])
				out.RowPtr[r+1]++
			}
		}
	}
	for r := 0; r < m.Rows; r++ {
		out.RowPtr[r+1] += out.RowPtr[r]
	}
	return out
}

// ThresholdForSparsity keeps at most the k = rows·cols/target
// largest-magnitude entries, so the result's sparsity factor rows·cols/nnz
// is at least target. This is how the thesis builds Gwt ("the truncation
// threshold [chosen] so that Gwt would be approximately 6 times sparser").
//
// Entries with magnitude strictly above the cutoff abs[len-k] are always
// kept. Entries tying the cutoff — pervasive here, because the extraction
// writes every off-diagonal Gw entry together with an equal-valued (j,i)
// twin — are admitted deterministically in CSR order until the k-entry
// budget runs out, as whole (i,j)/(j,i) units whenever the transposed entry
// ties too, so a symmetric input stays symmetric. Keeping every tie (as a
// plain magnitude threshold would) can come back far denser than target
// when values repeat.
func (m *Matrix) ThresholdForSparsity(target float64) *Matrix {
	if m.Sparsity() >= target || m.NNZ() == 0 {
		return m
	}
	abs := make([]float64, len(m.Val))
	for i, v := range m.Val {
		abs[i] = math.Abs(v)
	}
	sort.Float64s(abs)
	k := int(float64(m.Rows) * float64(m.Cols) / target)
	if k < 1 {
		k = 1
	}
	if k >= len(abs) {
		return m
	}
	t := abs[len(abs)-k]
	// All entries strictly above t sit in the sorted top-k tail; whatever
	// remains of the k-entry budget is handed out to ties on t.
	above := 0
	for _, a := range abs[len(abs)-k:] {
		if a > t {
			above++
		}
	}
	budget := k - above
	keepTie := make(map[[2]int]bool)
	for r := 0; r < m.Rows && budget > 0; r++ {
		for p := m.RowPtr[r]; p < m.RowPtr[r+1] && budget > 0; p++ {
			c := m.ColIdx[p]
			if math.Abs(m.Val[p]) != t {
				continue
			}
			// A tied entry whose transposed twin also ties is admitted (or
			// not) as a unit, decided at the upper-triangle member.
			twin := r != c && c < m.Rows && r < m.Cols && math.Abs(m.At(c, r)) == t
			if twin && r > c {
				continue
			}
			unit := 1
			if twin {
				unit = 2
			}
			if budget < unit {
				continue // a later size-1 tie may still fit
			}
			keepTie[[2]int{r, c}] = true
			if twin {
				keepTie[[2]int{c, r}] = true
			}
			budget -= unit
		}
	}
	out := &Matrix{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int, m.Rows+1)}
	for r := 0; r < m.Rows; r++ {
		for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
			a := math.Abs(m.Val[p])
			if a > t || (a == t && keepTie[[2]int{r, m.ColIdx[p]}]) {
				out.ColIdx = append(out.ColIdx, m.ColIdx[p])
				out.Val = append(out.Val, m.Val[p])
				out.RowPtr[r+1]++
			}
		}
	}
	for r := 0; r < m.Rows; r++ {
		out.RowPtr[r+1] += out.RowPtr[r]
	}
	return out
}

// At returns entry (r,c), or zero when not stored. Every constructor
// (FromTriplets, SymSet.Matrix, Threshold, ThresholdForSparsity, Permute)
// emits column indices sorted within each row, so the lookup is a binary
// search.
func (m *Matrix) At(r, c int) float64 {
	lo, hi := m.RowPtr[r], m.RowPtr[r+1]
	row := m.ColIdx[lo:hi]
	k := sort.SearchInts(row, c)
	if k < len(row) && row[k] == c {
		return m.Val[lo+k]
	}
	return 0
}

// Permute returns the matrix with its rows and columns both reordered by
// order (old index per new position): entry (order[a], order[b]) moves to
// (a, b). The spy plots show Gw this way, in Q's presentation order.
func (m *Matrix) Permute(order []int) *Matrix {
	if m.Rows != m.Cols || len(order) != m.Rows {
		panic(fmt.Sprintf("sparse: Permute of a %dx%d matrix by %d indices", m.Rows, m.Cols, len(order)))
	}
	pos := make([]int, len(order))
	for newIdx, oldIdx := range order {
		pos[oldIdx] = newIdx
	}
	ts := make([]Triplet, 0, m.NNZ())
	for r := 0; r < m.Rows; r++ {
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			ts = append(ts, Triplet{Row: pos[r], Col: pos[m.ColIdx[k]], Val: m.Val[k]})
		}
	}
	return FromTriplets(m.Rows, m.Cols, ts)
}

// MaxAbs returns the largest absolute stored value (0 when empty).
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Val {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}
