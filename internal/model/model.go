// Package model is the serializable serving layer of subcouple: everything
// needed to apply a sparsified substrate-coupling operator G ≈ Q·Gw·Qᵀ
// without re-extraction, detached from the extraction machinery.
//
// Extraction (O(log n) black-box substrate solves, the expensive offline
// step) produces a Model once; the Model is then encoded to a versioned,
// checksummed binary artifact (see codec.go) and served forever — loading it
// performs zero substrate solves, and applying it through an Engine is a
// pair of O(n)–O(n log n) sparse operator applications with no steady-state
// allocations.
//
// Q is stored in one of two forms, matching the two sparsification methods:
//
//   - QColumns: explicit sparse columns in CSC layout (the low-rank method's
//     per-square T/U bases, thesis Ch. 4);
//   - QFactored: the O(n)-storage factored level chain of thesis §3.4.3,
//     Q = Q⁽ᴸ⁾·…·Q⁽⁰⁾, each factor a set of small dense blocks plus
//     pass-through coordinates (the wavelet method).
//
// Gw (and the optionally thresholded Gwt) are CSR matrices in the basis's
// native coefficient indexing; Order is the presentation permutation used
// for spy plots.
package model

import (
	"fmt"
	"math"

	"subcouple/internal/geom"
	"subcouple/internal/sparse"
)

// QKind selects the stored representation of Q.
type QKind uint8

const (
	// QColumns is an explicit sparse-column (CSC) Q.
	QColumns QKind = 1
	// QFactored is the factored level-chain Q of thesis §3.4.3.
	QFactored QKind = 2
)

// Columns is Q in compressed sparse column layout: the low-rank method's
// own sparse.Columns, stored as extraction built it. The apply loops visit
// each column's entries in that order, keeping outputs bitwise identical to
// the in-memory representation.
type Columns = sparse.Columns

// Block is one dense block of a factored level: out[Out] = M · in[In] with M
// the Rows×Cols row-major matrix in Data.
type Block struct {
	Rows, Cols int
	Data       []float64
	In         []int // len Cols: input coordinates
	Out        []int // len Rows: output coordinates
}

// Level is one factor Q⁽ˡ⁾ of the chain: dense blocks plus coordinates
// copied unchanged.
type Level struct {
	Blocks      []Block
	PassThrough []int
}

// Model is a self-contained sparsified substrate-coupling operator.
type Model struct {
	// Method names the extraction algorithm ("wavelet" or "low-rank").
	Method string
	// N is the contact count (operator dimension).
	N int
	// Solves records how many black-box substrate solves the extraction
	// spent. Applying the model spends none.
	Solves int

	// Kind selects which Q representation is populated.
	Kind   QKind
	Cols   *Columns // Kind == QColumns
	Levels []Level  // Kind == QFactored

	// Gw is the transformed-basis conductance matrix (native coefficient
	// indexing); Gwt is the additionally thresholded version, nil when no
	// thresholding was requested.
	Gw, Gwt *sparse.Matrix

	// Order is the presentation permutation of basis columns (new position →
	// native index) used for spy plots and reordered Gw views.
	Order []int

	// Layout is the contact layout the model was extracted for.
	Layout *geom.Layout

	// Meta carries extraction metadata (max_level, threshold_factor, ...).
	Meta map[string]string
}

// Validate cross-checks every dimension and index of the model and rejects
// any NaN or ±Inf in Q, Gw and Gwt; Decode calls it on every artifact, and
// Encode refuses to write a model that fails it.
func (m *Model) Validate() error {
	if m.N <= 0 {
		return fmt.Errorf("model: contact count %d", m.N)
	}
	if m.Method == "" {
		return fmt.Errorf("model: empty method")
	}
	switch m.Kind {
	case QColumns:
		if m.Cols == nil {
			return fmt.Errorf("model: QColumns kind without columns")
		}
		if err := validateColumns(m.Cols, m.N); err != nil {
			return err
		}
	case QFactored:
		if len(m.Levels) == 0 {
			return fmt.Errorf("model: QFactored kind without levels")
		}
		for li, lv := range m.Levels {
			if err := lv.validate(m.N, li); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("model: unknown Q kind %d", m.Kind)
	}
	if err := validateCSR("Gw", m.Gw, m.N); err != nil {
		return err
	}
	if m.Gwt != nil {
		if err := validateCSR("Gwt", m.Gwt, m.N); err != nil {
			return err
		}
	}
	if len(m.Order) != m.N {
		return fmt.Errorf("model: order has %d entries for %d columns", len(m.Order), m.N)
	}
	seen := make([]bool, m.N)
	for _, o := range m.Order {
		if o < 0 || o >= m.N || seen[o] {
			return fmt.Errorf("model: order is not a permutation of 0..%d", m.N-1)
		}
		seen[o] = true
	}
	if m.Layout == nil {
		return fmt.Errorf("model: missing layout")
	}
	if m.Layout.N() != m.N {
		return fmt.Errorf("model: layout has %d contacts, model %d", m.Layout.N(), m.N)
	}
	if !(m.Layout.A > 0) || !(m.Layout.B > 0) ||
		math.IsInf(m.Layout.A, 0) || math.IsInf(m.Layout.B, 0) {
		return fmt.Errorf("model: layout surface %gx%g", m.Layout.A, m.Layout.B)
	}
	if m.Solves < 0 {
		return fmt.Errorf("model: negative solve count %d", m.Solves)
	}
	return nil
}

func validateColumns(c *Columns, n int) error {
	if len(c.ColPtr) != n+1 || c.ColPtr[0] != 0 {
		return fmt.Errorf("model: columns ColPtr malformed")
	}
	for i := 1; i <= n; i++ {
		if c.ColPtr[i] < c.ColPtr[i-1] {
			return fmt.Errorf("model: columns ColPtr decreasing at %d", i)
		}
	}
	nnz := c.ColPtr[n]
	if len(c.RowIdx) != nnz || len(c.Val) != nnz {
		return fmt.Errorf("model: columns nnz mismatch: ptr %d, rows %d, vals %d",
			nnz, len(c.RowIdx), len(c.Val))
	}
	for _, r := range c.RowIdx {
		if r < 0 || r >= n {
			return fmt.Errorf("model: column row index %d out of %d", r, n)
		}
	}
	if k := nonFinite(c.Val); k >= 0 {
		return fmt.Errorf("model: column value %d is %v", k, c.Val[k])
	}
	return nil
}

func (lv *Level) validate(n, li int) error {
	for bi, b := range lv.Blocks {
		if b.Rows <= 0 || b.Cols <= 0 || len(b.Data) != b.Rows*b.Cols {
			return fmt.Errorf("model: level %d block %d shape %dx%d with %d entries",
				li, bi, b.Rows, b.Cols, len(b.Data))
		}
		if len(b.In) != b.Cols || len(b.Out) != b.Rows {
			return fmt.Errorf("model: level %d block %d index lengths %d/%d for %dx%d",
				li, bi, len(b.In), len(b.Out), b.Rows, b.Cols)
		}
		if k := nonFinite(b.Data); k >= 0 {
			return fmt.Errorf("model: level %d block %d value %d is %v", li, bi, k, b.Data[k])
		}
		for _, i := range b.In {
			if i < 0 || i >= n {
				return fmt.Errorf("model: level %d block %d input coordinate %d out of %d", li, bi, i, n)
			}
		}
		for _, o := range b.Out {
			if o < 0 || o >= n {
				return fmt.Errorf("model: level %d block %d output coordinate %d out of %d", li, bi, o, n)
			}
		}
	}
	for _, p := range lv.PassThrough {
		if p < 0 || p >= n {
			return fmt.Errorf("model: level %d pass-through coordinate %d out of %d", li, p, n)
		}
	}
	return nil
}

func validateCSR(what string, m *sparse.Matrix, n int) error {
	if m == nil {
		return fmt.Errorf("model: missing %s", what)
	}
	if m.Rows != n || m.Cols != n {
		return fmt.Errorf("model: %s is %dx%d for %d contacts", what, m.Rows, m.Cols, n)
	}
	if len(m.RowPtr) != n+1 || m.RowPtr[0] != 0 {
		return fmt.Errorf("model: %s RowPtr malformed", what)
	}
	for i := 1; i <= n; i++ {
		if m.RowPtr[i] < m.RowPtr[i-1] {
			return fmt.Errorf("model: %s RowPtr decreasing at %d", what, i)
		}
	}
	nnz := m.RowPtr[n]
	if len(m.ColIdx) != nnz || len(m.Val) != nnz {
		return fmt.Errorf("model: %s nnz mismatch: ptr %d, cols %d, vals %d",
			what, nnz, len(m.ColIdx), len(m.Val))
	}
	for r := 0; r < n; r++ {
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			if c := m.ColIdx[k]; c < 0 || c >= n {
				return fmt.Errorf("model: %s column index %d out of %d", what, c, n)
			}
			// Sorted rows are the CSR invariant sparse.Matrix.At relies on.
			if k > m.RowPtr[r] && m.ColIdx[k-1] >= m.ColIdx[k] {
				return fmt.Errorf("model: %s row %d columns out of order", what, r)
			}
		}
	}
	if k := nonFinite(m.Val); k >= 0 {
		return fmt.Errorf("model: %s value %d is %v", what, k, m.Val[k])
	}
	return nil
}

// nonFinite returns the index of the first NaN or ±Inf in vals, or -1. A
// poisoned operator value would spread into every served answer that
// touches it, so Validate refuses the whole model.
func nonFinite(vals []float64) int {
	for k, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return k
		}
	}
	return -1
}

// GwReordered returns Gw (or Gwt when thresholded) permuted into the
// presentation ordering, for spy plots.
func (m *Model) GwReordered(thresholded bool) *sparse.Matrix {
	gw := m.Gw
	if thresholded {
		if m.Gwt == nil {
			panic("model: no thresholded representation")
		}
		gw = m.Gwt
	}
	return gw.Permute(m.Order)
}

// Q materializes the sparse change-of-basis matrix in the presentation
// ordering. For QColumns this is a re-index of the stored columns; for
// QFactored each column is the factor chain applied to a unit vector (exact
// zeros outside the column's square support are dropped).
func (m *Model) Q() *sparse.Matrix {
	if m.Kind == QColumns {
		return m.Cols.Matrix(m.N, m.Order)
	}
	var ts []sparse.Triplet
	e := NewEngine(m)
	col := make([]float64, m.N)
	for newIdx, oldIdx := range m.Order {
		e.QColumnInto(col, oldIdx)
		for r, v := range col {
			if v != 0 {
				ts = append(ts, sparse.Triplet{Row: r, Col: newIdx, Val: v})
			}
		}
	}
	return sparse.FromTriplets(m.N, m.N, ts)
}

// Apply computes Q·Gw·Qᵀ·x with per-call allocations — the convenience (and
// benchmark-ablation baseline) path. Hot paths should hold an Engine and use
// ApplyInto.
func (m *Model) Apply(x []float64) []float64 {
	out := make([]float64, m.N)
	NewEngine(m).ApplyInto(out, x)
	return out
}
