package solver

import (
	"fmt"

	"subcouple/internal/obs"
	"subcouple/internal/par"
)

// BatchSolver is an optional Solver extension for backends that can answer
// several independent right-hand sides at once (natively batched kernels,
// or anything wrapped by Parallel). The responses must be exactly what n
// sequential Solve calls would return, in the same order.
type BatchSolver interface {
	Solver
	// SolveBatch returns one response per voltage vector in vs.
	SolveBatch(vs [][]float64) ([][]float64, error)
}

// SolveBatch answers every right-hand side in vs through s, using the native
// SolveBatch when s implements BatchSolver and a sequential loop otherwise.
// This is the entry point the sparsification algorithms use for every group
// of independent solves.
func SolveBatch(s Solver, vs [][]float64) ([][]float64, error) {
	if bs, ok := s.(BatchSolver); ok {
		return bs.SolveBatch(vs)
	}
	out := make([][]float64, len(vs))
	for i, v := range vs {
		r, err := s.Solve(v)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// WorkerSetter is implemented by solvers whose native SolveBatch runs on a
// configurable pool (fd, bem). Parallel propagates its worker count through
// it, so one knob controls the whole chain.
type WorkerSetter interface {
	SetWorkers(workers int)
}

// parallelSolver fans batched solves across a worker pool. See Parallel.
type parallelSolver struct {
	s       Solver
	workers int
	busy    *obs.Histogram // "solver/busy_workers"; nil = no-op
	tr      *obs.Tracer
}

// Parallel adapts s into a BatchSolver whose SolveBatch runs independent
// solves concurrently on workers goroutines (workers <= 0 selects
// runtime.NumCPU()). Responses are written into slots indexed by
// right-hand-side position, so the result is bitwise-identical to the
// serial loop for any worker count. If s already implements BatchSolver its
// native batching is preferred — except for *Counting, which is counted and
// then unwrapped so its sequential fallback can never serialize the batch.
// Wrap only solvers whose Solve is safe to call concurrently.
func Parallel(s Solver, workers int) BatchSolver {
	if p, ok := s.(*parallelSolver); ok {
		s = p.s // re-wrapping just replaces the worker count
	}
	if ws, ok := s.(WorkerSetter); ok {
		ws.SetWorkers(workers)
	}
	return &parallelSolver{s: s, workers: par.Workers(workers)}
}

// N implements Solver.
func (p *parallelSolver) N() int { return p.s.N() }

// Solve implements Solver by passing through to the wrapped solver.
func (p *parallelSolver) Solve(v []float64) ([]float64, error) { return p.s.Solve(v) }

// AvgIterations passes through the wrapped solver's iteration statistics.
func (p *parallelSolver) AvgIterations() float64 {
	if ir, ok := p.s.(IterationReporter); ok {
		return ir.AvgIterations()
	}
	return 0
}

// SetObs implements obs.Setter: worker utilization lands in the
// "solver/busy_workers" histogram, and both values are forwarded down the
// chain so instrumented backends (fd, bem, Counting) are wired with one
// call. The adapter's own spans cover the fallback fan-out path; native
// BatchSolver backends (fd, bem) emit their own batch spans.
func (p *parallelSolver) SetObs(ms *obs.Metrics, tr *obs.Tracer) {
	p.busy = ms.Observed("solver/busy_workers")
	p.tr = tr
	if next, ok := p.s.(obs.Setter); ok {
		next.SetObs(ms, tr)
	}
}

// SolveBatch implements BatchSolver. A wrapped *Counting is unwrapped here
// — counted, then bypassed — so the fan-out always happens below the
// counter. Without this, Counting's own SolveBatch (a sequential Solve loop
// when the innermost solver is a plain Solver) would swallow the batch and
// silently serialize it. The answers are then checked as the outermost
// unwrapped Counting would have checked them.
func (p *parallelSolver) SolveBatch(vs [][]float64) ([][]float64, error) {
	s, first, counted := p.s, 0, false
	for {
		c, ok := s.(*Counting)
		if !ok {
			break
		}
		n := c.recordBatch(len(vs))
		if !counted {
			first, counted = n, true
		}
		s = c.S
	}
	busy := p.workers
	if len(vs) < busy {
		busy = len(vs)
	}
	p.busy.Observe(float64(busy))
	out, err := p.fanOut(s, vs)
	if err != nil {
		return nil, err
	}
	if counted {
		if err := checkFinite(first, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fanOut answers vs through s: natively if s batches, otherwise one Solve
// per right-hand side on the worker pool.
func (p *parallelSolver) fanOut(s Solver, vs [][]float64) ([][]float64, error) {
	if bs, ok := s.(BatchSolver); ok {
		return bs.SolveBatch(vs)
	}
	sp := p.tr.Begin("solver/parallel_batch").Arg("batch_size", len(vs))
	out := make([][]float64, len(vs))
	err := par.DoWorkerErr(p.workers, len(vs), func(worker, i int) error {
		ssp := sp.ChildOn(worker+1, "solver/solve").Arg("rhs", i)
		r, err := s.Solve(vs[i])
		ssp.End()
		out[i] = r
		return err
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	return out, nil
}

// extractBatch is the number of columns materialized per SolveBatch call in
// the naive extractors: large enough to keep a pool of workers busy, small
// enough that the in-flight right-hand sides stay O(extractBatch·n) even
// for the 10k-contact examples.
const extractBatch = 128

// extractInto drives the naive column extraction through SolveBatch in
// fixed-size chunks, storing each response via set(ji, col).
func extractInto(s Solver, cols []int, set func(ji int, col []float64)) error {
	n := s.N()
	for base := 0; base < len(cols); base += extractBatch {
		end := base + extractBatch
		if end > len(cols) {
			end = len(cols)
		}
		vs := make([][]float64, end-base)
		for k := range vs {
			j := cols[base+k]
			if j < 0 || j >= n {
				return fmt.Errorf("solver: column %d out of range", j)
			}
			e := make([]float64, n)
			e[j] = 1
			vs[k] = e
		}
		resp, err := SolveBatch(s, vs)
		if err != nil {
			return fmt.Errorf("solver: extracting columns %v: %w", cols[base:end], err)
		}
		for k, col := range resp {
			set(base+k, col)
		}
	}
	return nil
}
