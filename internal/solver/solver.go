// Package solver defines the black-box substrate solver abstraction at the
// heart of the thesis: a routine which, given voltages on the n substrate
// contacts, returns the n contact currents. The sparsification algorithms
// never see anything else — no kernel, no matrix entries — so any solver
// implementing this interface (finite-difference, eigenfunction-based, or a
// user-supplied one) can be plugged in unmodified.
package solver

import (
	"fmt"
	"math"
	"sync"

	"subcouple/internal/la"
	"subcouple/internal/obs"
)

// Solver is the black-box contact-voltages-to-contact-currents map.
type Solver interface {
	// N returns the number of contacts.
	N() int
	// Solve returns the contact currents for the given contact voltages.
	Solve(v []float64) ([]float64, error)
}

// IterationReporter is implemented by iterative solvers that track their
// inner iteration counts (used by Tables 2.1 and 2.2).
type IterationReporter interface {
	// AvgIterations returns the mean inner-iteration count per Solve call.
	AvgIterations() float64
}

// Counting wraps a Solver and counts black-box calls, the currency of the
// thesis's solve-reduction factor. Increments are mutex-guarded so a
// Counting may sit below a Parallel adapter; read Solves only when no
// solves are in flight (i.e. after the extraction returns). SetObs also
// streams solve counts and batch-size stats into an obs.Metrics.
//
// Counting also checks every answer: one holding a NaN or an infinity is
// returned as an error naming the solve by its number in the count, so a
// faulty black box fails the extraction instead of poisoning the model.
type Counting struct {
	S      Solver
	Solves int

	mu sync.Mutex

	// Batch-event handles, registered by SetObs (nil = no-op).
	mSolves, mBatches *obs.Counter
	mBatchSize        *obs.Histogram
}

// NewCounting wraps s.
func NewCounting(s Solver) *Counting { return &Counting{S: s} }

// N implements Solver.
func (c *Counting) N() int { return c.S.N() }

// Solve implements Solver, incrementing the call counter.
func (c *Counting) Solve(v []float64) ([]float64, error) {
	k := c.add(1)
	c.mSolves.Add(1)
	r, err := c.S.Solve(v)
	if err != nil {
		return nil, err
	}
	if err := checkFinite(k, [][]float64{r}); err != nil {
		return nil, err
	}
	return r, nil
}

// SolveBatch implements BatchSolver: a batch of k right-hand sides counts
// as k black-box calls regardless of how the wrapped solver executes them.
func (c *Counting) SolveBatch(vs [][]float64) ([][]float64, error) {
	first := c.recordBatch(len(vs))
	out, err := SolveBatch(c.S, vs)
	if err != nil {
		return nil, err
	}
	if err := checkFinite(first, out); err != nil {
		return nil, err
	}
	return out, nil
}

// recordBatch counts a k-solve batch and returns the count before it. It is
// also called by the Parallel adapter when it unwraps a Counting to fan the
// batch out itself, so the count and the answer check stay exact on that
// path too.
func (c *Counting) recordBatch(k int) int {
	first := c.add(k)
	c.mSolves.Add(int64(k))
	c.mBatches.Add(1)
	c.mBatchSize.Observe(float64(k))
	return first
}

// add counts k solves and returns the count before them.
func (c *Counting) add(k int) int {
	c.mu.Lock()
	first := c.Solves
	c.Solves += k
	c.mu.Unlock()
	return first
}

// checkFinite returns an error naming the first NaN or infinity in the
// answers out, whose solves the counter numbered first+1, first+2, ...
func checkFinite(first int, out [][]float64) error {
	for j, r := range out {
		for i, x := range r {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("solver: black-box solve %d returned %v for contact %d", first+j+1, x, i)
			}
		}
	}
	return nil
}

// SetObs implements obs.Setter: solve counts land in the "solver/solves"
// and "solver/batches" events and batch sizes in the "solver/batch_size"
// histogram. Both values are forwarded to the wrapped solver, so a whole
// chain is wired with one call; Counting itself emits no spans (the
// per-solve spans live in the backends).
func (c *Counting) SetObs(ms *obs.Metrics, tr *obs.Tracer) {
	c.mSolves = ms.Event("solver/solves")
	c.mBatches = ms.Event("solver/batches")
	c.mBatchSize = ms.Observed("solver/batch_size")
	if next, ok := c.S.(obs.Setter); ok {
		next.SetObs(ms, tr)
	}
}

// SetWorkers implements WorkerSetter by forwarding to the wrapped solver,
// so a Counting anywhere in a chain is transparent to the worker knob.
func (c *Counting) SetWorkers(w int) {
	if ws, ok := c.S.(WorkerSetter); ok {
		ws.SetWorkers(w)
	}
}

// AvgIterations passes through the wrapped solver's iteration statistics.
func (c *Counting) AvgIterations() float64 {
	if ir, ok := c.S.(IterationReporter); ok {
		return ir.AvgIterations()
	}
	return 0
}

// Reset zeroes the call counter.
func (c *Counting) Reset() {
	c.mu.Lock()
	c.Solves = 0
	c.mu.Unlock()
}

// Dense is a Solver backed by an explicit conductance matrix. It is used in
// tests and to re-drive the sparsification algorithms cheaply once an exact
// G has been extracted for error measurement.
type Dense struct {
	G *la.Dense
}

// NewDense wraps a conductance matrix.
func NewDense(g *la.Dense) *Dense {
	if g.Rows != g.Cols {
		panic("solver: conductance matrix must be square")
	}
	return &Dense{G: g}
}

// N implements Solver.
func (d *Dense) N() int { return d.G.Rows }

// Solve implements Solver.
func (d *Dense) Solve(v []float64) ([]float64, error) {
	if len(v) != d.G.Rows {
		return nil, fmt.Errorf("solver: voltage vector length %d, want %d", len(v), d.G.Rows)
	}
	return d.G.MulVec(v), nil
}

// ExtractDense runs the naive extraction: n black-box calls, one per
// standard basis vector (thesis §1.2), returning the dense G. The calls go
// through SolveBatch in chunks, so wrapping s with Parallel (or passing a
// native BatchSolver) extracts columns concurrently.
func ExtractDense(s Solver) (*la.Dense, error) {
	n := s.N()
	cols := make([]int, n)
	for j := range cols {
		cols[j] = j
	}
	g := la.NewDense(n, n)
	err := extractInto(s, cols, func(j int, col []float64) {
		for i := 0; i < n; i++ {
			g.Set(i, j, col[i])
		}
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// ExtractColumns runs the naive extraction for a subset of columns (used for
// the thesis's 10%-sample error measurement on large examples), batched the
// same way as ExtractDense.
func ExtractColumns(s Solver, cols []int) (*la.Dense, error) {
	g := la.NewDense(s.N(), len(cols))
	if err := extractInto(s, cols, g.SetCol); err != nil {
		return nil, err
	}
	return g, nil
}
