package sparse

import "slices"

// SymSet assembles a symmetric matrix with set semantics: Put(i, j, v)
// writes v at (i,j) and at (j,i), and a later Put to either position
// overwrites both. Both methods collect Gw's kept entries this way, since
// the locality patterns reach many entries from both sides.
type SymSet struct {
	rows [][]setEntry // per row, in put order
}

type setEntry struct {
	col int
	val float64
}

// NewSymSet returns an empty n×n assembler.
func NewSymSet(n int) *SymSet { return &SymSet{rows: make([][]setEntry, n)} }

// Put writes v at (i,j) and (j,i).
func (s *SymSet) Put(i, j int, v float64) {
	s.rows[i] = append(s.rows[i], setEntry{j, v})
	if i != j {
		s.rows[j] = append(s.rows[j], setEntry{i, v})
	}
}

// Matrix returns the assembled CSR matrix: the last write at each position,
// exact zeros dropped, columns sorted within each row. Each row is sorted
// stably by column, so the last entry of a run of equal columns is the last
// write. Puts may continue afterwards.
func (s *SymSet) Matrix() *Matrix {
	n := len(s.rows)
	nnz := 0
	for i, row := range s.rows {
		slices.SortStableFunc(row, func(a, b setEntry) int { return a.col - b.col })
		kept := row[:0]
		for k, e := range row {
			if (k+1 == len(row) || row[k+1].col != e.col) && e.val != 0 {
				kept = append(kept, e)
			}
		}
		s.rows[i] = kept
		nnz += len(kept)
	}
	m := &Matrix{Rows: n, Cols: n, RowPtr: make([]int, n+1),
		ColIdx: make([]int, 0, nnz), Val: make([]float64, 0, nnz)}
	for i, row := range s.rows {
		for _, e := range row {
			m.ColIdx = append(m.ColIdx, e.col)
			m.Val = append(m.Val, e.val)
		}
		m.RowPtr[i+1] = len(m.Val)
	}
	return m
}
