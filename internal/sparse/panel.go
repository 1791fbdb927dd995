package sparse

import "fmt"

// Panel kernel: multi-RHS sparse multiply over a column-major panel.
//
// A panel packs k right-hand sides contiguously, column-major: column c of
// an n×k panel occupies p[c*n : (c+1)*n]. The layout keeps every individual
// RHS a contiguous n-vector (so a single column can be handed to or compared
// against the single-RHS kernel byte for byte) while letting one sweep over
// the matrix structure — RowPtr/ColIdx/Val are streamed exactly once — touch
// all k columns, instead of re-streaming the matrix k times as a per-column
// loop would.
//
// Per column the arithmetic is the exact accumulation sequence of the
// single-RHS kernel (same terms, same order), so panel results are bitwise
// identical to MulVecInto applied column by column.

// checkPanel validates one panel argument against its expected n×k size.
func checkPanel(what string, p []float64, n, k int) {
	if k < 1 {
		panic(fmt.Sprintf("sparse: %s: panel width %d", what, k))
	}
	if len(p) != n*k {
		panic(fmt.Sprintf("sparse: %s: panel has %d entries, want %d (= %d x %d)",
			what, len(p), n*k, n, k))
	}
}

// MulPanelInto computes Y = m·X where X is a Cols×k column-major panel and Y
// a Rows×k column-major panel. Y may not alias X. Column c of Y is bitwise
// identical to MulVecInto on column c of X.
//
// Columns are processed in register-blocked groups of four: each group
// streams RowPtr/ColIdx/Val once and keeps four row accumulators in
// registers, so the dominant cost of the sparse multiply — reading the
// matrix itself — is amortized 4× and the per-nonzero work drops to one
// gather and one FMA per column. Per column the accumulation is still the
// exact p-ascending sequence of MulVecInto, just interleaved across the
// group, so blocking never changes a bit of the result.
func (m *Matrix) MulPanelInto(y, x []float64, k int) {
	checkPanel("MulPanelInto x", x, m.Cols, k)
	checkPanel("MulPanelInto y", y, m.Rows, k)
	if len(y) > 0 && len(x) > 0 && &y[0] == &x[0] {
		panic("sparse: MulPanelInto: y aliases x")
	}
	rows, cols := m.Rows, m.Cols
	c := 0
	for ; c+8 <= k; c += 8 {
		x0 := x[(c+0)*cols : (c+1)*cols]
		x1 := x[(c+1)*cols : (c+2)*cols]
		x2 := x[(c+2)*cols : (c+3)*cols]
		x3 := x[(c+3)*cols : (c+4)*cols]
		x4 := x[(c+4)*cols : (c+5)*cols]
		x5 := x[(c+5)*cols : (c+6)*cols]
		x6 := x[(c+6)*cols : (c+7)*cols]
		x7 := x[(c+7)*cols : (c+8)*cols]
		y0 := y[(c+0)*rows : (c+1)*rows]
		y1 := y[(c+1)*rows : (c+2)*rows]
		y2 := y[(c+2)*rows : (c+3)*rows]
		y3 := y[(c+3)*rows : (c+4)*rows]
		y4 := y[(c+4)*rows : (c+5)*rows]
		y5 := y[(c+5)*rows : (c+6)*rows]
		y6 := y[(c+6)*rows : (c+7)*rows]
		y7 := y[(c+7)*rows : (c+8)*rows]
		for r := 0; r < rows; r++ {
			var s0, s1, s2, s3, s4, s5, s6, s7 float64
			for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
				v, ci := m.Val[p], m.ColIdx[p]
				s0 += v * x0[ci]
				s1 += v * x1[ci]
				s2 += v * x2[ci]
				s3 += v * x3[ci]
				s4 += v * x4[ci]
				s5 += v * x5[ci]
				s6 += v * x6[ci]
				s7 += v * x7[ci]
			}
			y0[r], y1[r], y2[r], y3[r] = s0, s1, s2, s3
			y4[r], y5[r], y6[r], y7[r] = s4, s5, s6, s7
		}
	}
	for ; c+4 <= k; c += 4 {
		x0 := x[(c+0)*cols : (c+1)*cols]
		x1 := x[(c+1)*cols : (c+2)*cols]
		x2 := x[(c+2)*cols : (c+3)*cols]
		x3 := x[(c+3)*cols : (c+4)*cols]
		y0 := y[(c+0)*rows : (c+1)*rows]
		y1 := y[(c+1)*rows : (c+2)*rows]
		y2 := y[(c+2)*rows : (c+3)*rows]
		y3 := y[(c+3)*rows : (c+4)*rows]
		for r := 0; r < rows; r++ {
			var s0, s1, s2, s3 float64
			for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
				v, ci := m.Val[p], m.ColIdx[p]
				s0 += v * x0[ci]
				s1 += v * x1[ci]
				s2 += v * x2[ci]
				s3 += v * x3[ci]
			}
			y0[r], y1[r], y2[r], y3[r] = s0, s1, s2, s3
		}
	}
	for ; c < k; c++ {
		m.MulVecInto(y[c*rows:(c+1)*rows], x[c*cols:(c+1)*cols])
	}
}
