package sparse

// Columns is a matrix held column by column in compressed sparse column
// (CSC) layout: column j's nonzeros are RowIdx/Val[ColPtr[j]:ColPtr[j+1]],
// in the order they were appended. Both methods build their orthogonal
// change of basis Q this way, and a model artifact stores it as is. Every
// product below visits a column's entries in that order, so a Q read back
// from an artifact applies bit for bit like the one extraction built.
type Columns struct {
	ColPtr []int
	RowIdx []int
	Val    []float64
}

// Append adds one column whose entry k is vals[k] at row rows[k], skipping
// exact zeros.
func (c *Columns) Append(rows []int, vals []float64) {
	if len(c.ColPtr) == 0 {
		c.ColPtr = append(c.ColPtr, 0)
	}
	for k, v := range vals {
		if v != 0 {
			c.RowIdx = append(c.RowIdx, rows[k])
			c.Val = append(c.Val, v)
		}
	}
	c.ColPtr = append(c.ColPtr, len(c.Val))
}

// Len returns the number of columns.
func (c *Columns) Len() int { return max(len(c.ColPtr)-1, 0) }

// Dot returns the inner product of column j with y.
func (c *Columns) Dot(j int, y []float64) float64 {
	var s float64
	for k := c.ColPtr[j]; k < c.ColPtr[j+1]; k++ {
		s += c.Val[k] * y[c.RowIdx[k]]
	}
	return s
}

// AddTo adds scale times column j into y.
func (c *Columns) AddTo(j int, scale float64, y []float64) {
	for k := c.ColPtr[j]; k < c.ColPtr[j+1]; k++ {
		y[c.RowIdx[k]] += scale * c.Val[k]
	}
}

// Vector returns column j as a dense vector of length n.
func (c *Columns) Vector(j, n int) []float64 {
	v := make([]float64, n)
	c.AddTo(j, 1, v)
	return v
}

// Matrix returns the n-row CSR matrix whose column k is column order[k].
func (c *Columns) Matrix(n int, order []int) *Matrix {
	ts := make([]Triplet, 0, len(c.Val))
	for k, j := range order {
		for p := c.ColPtr[j]; p < c.ColPtr[j+1]; p++ {
			ts = append(ts, Triplet{Row: c.RowIdx[p], Col: k, Val: c.Val[p]})
		}
	}
	return FromTriplets(n, len(order), ts)
}

// Apply returns Q·gw·Qᵀ·x for the square Q these columns hold: the
// sparsified operator applied to contact voltages x.
func (c *Columns) Apply(gw *Matrix, x []float64) []float64 {
	u := make([]float64, c.Len())
	for j := range u {
		u[j] = c.Dot(j, x)
	}
	w := gw.MulVec(u)
	out := make([]float64, len(x))
	for j, wj := range w {
		if wj != 0 {
			c.AddTo(j, wj, out)
		}
	}
	return out
}
