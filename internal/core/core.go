// Package core is subcouple's public facade: given any black-box substrate
// solver (contact voltages → contact currents) and a contact layout, it
// extracts a sparse representation G ≈ Q·Gw·Qᵀ of the dense coupling
// conductance matrix in O(log n) solves, using either the wavelet method
// (thesis Ch. 3) or the low-rank method (thesis Ch. 4).
//
// Typical use:
//
//	layout, maxLevel := core.Prepare(rawLayout, 4)
//	sol, _ := bem.New(profile, layout, 128)      // or fd.New, or your own
//	res, _ := core.Extract(sol, layout, core.Options{Method: core.LowRank, MaxLevel: maxLevel})
//	i := res.Apply(v)                             // sparse matvec, O(n log n)
package core

import (
	"fmt"

	"subcouple/internal/geom"
	"subcouple/internal/lowrank"
	"subcouple/internal/model"
	"subcouple/internal/obs"
	"subcouple/internal/quadtree"
	"subcouple/internal/solver"
	"subcouple/internal/sparse"
	"subcouple/internal/wavelet"
)

// Method selects the sparsification algorithm.
type Method int

const (
	// Wavelet is the Chapter 3 geometric moment-matching method.
	Wavelet Method = iota
	// LowRank is the Chapter 4 sampled-SVD method (generally superior on
	// layouts with mixed contact sizes and shapes).
	LowRank
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case Wavelet:
		return "wavelet"
	case LowRank:
		return "low-rank"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Options configures Extract.
type Options struct {
	Method Method
	// MaxLevel is the quadtree depth (>= 2). Use Prepare to choose it.
	MaxLevel int
	// LowRank tunes the low-rank method; zero value means
	// lowrank.DefaultOptions.
	LowRank lowrank.Options
	// ThresholdFactor, when > 0, additionally thresholds Gw to
	// approximately ThresholdFactor × its unthresholded sparsity (the
	// thesis uses 6). The thresholded matrix is exposed as Result.Gwt.
	ThresholdFactor float64
	// Workers sizes the worker pool used for independent black-box solves
	// and per-square basis work; <= 0 selects runtime.NumCPU() and 1 runs
	// fully serial. Extraction results are bitwise-identical for any value.
	Workers int
	// Metrics, when non-nil, collects per-phase wall times, solve counts,
	// batch stats, rank cuts, (for instrumented solvers) iteration and
	// residual histograms during the extraction, and the result engine's
	// apply durations. Recording never changes extraction outputs — they
	// stay bitwise identical to a nil-registry run.
	Metrics *obs.Metrics
	// Tracer, when non-nil, collects hierarchical spans (per level, square,
	// batch, worker, and solve) for Chrome trace-event export. Like the
	// registry, tracing never changes extraction outputs.
	Tracer *obs.Tracer
}

// Prepare splits a layout at the finest-square boundaries of an
// automatically chosen quadtree depth (at most maxPerSquare contact pieces
// per finest square) and returns the split layout with the chosen level.
// Build your solver against the returned layout.
func Prepare(l *geom.Layout, maxPerSquare int) (*geom.Layout, int) {
	if maxPerSquare <= 0 {
		maxPerSquare = 4
	}
	lev := quadtree.ChooseMaxLevel(l, maxPerSquare, 9)
	return l.SplitToGrid(l.A / float64(int(1)<<lev)), lev
}

// Result is an extracted (or loaded) sparse representation of G. It wraps a
// serializable model.Model — the operator itself — together with an apply
// engine holding reusable scratch buffers, so Column/Apply calls don't
// allocate intermediates.
type Result struct {
	Method Method
	Layout *geom.Layout
	// Tree is the extraction quadtree; nil on a Result reconstructed from a
	// serialized model (the model carries everything needed to apply).
	Tree *quadtree.Tree
	// Gw is the transformed-basis matrix with the algorithm's native
	// (locality-assumed) sparsity; Gwt is the additionally thresholded
	// version (nil unless ThresholdFactor > 0). Both alias the model's
	// matrices.
	Gw, Gwt *sparse.Matrix
	// Solves is the number of black-box calls used. Zero on a Result loaded
	// from a model artifact: the load path performs no substrate solves (the
	// extraction-time count is in Model().Solves).
	Solves int

	model  *model.Model
	engine *model.Engine
}

// Extract runs the selected sparsification algorithm. The layout must
// already be split so no contact crosses a finest-level square boundary
// (see Prepare), and the solver must index contacts exactly as the layout
// does.
func Extract(s solver.Solver, layout *geom.Layout, opt Options) (*Result, error) {
	if s.N() != layout.N() {
		return nil, fmt.Errorf("core: solver has %d contacts, layout %d", s.N(), layout.N())
	}
	if opt.MaxLevel < 2 {
		return nil, fmt.Errorf("core: MaxLevel must be >= 2 (use Prepare)")
	}
	tree, err := quadtree.Build(layout, opt.MaxLevel)
	if err != nil {
		return nil, err
	}
	// The solver chain is Counting(Parallel(s)): the algorithms issue
	// batches through the counter (so a k-vector batch counts as k solves)
	// and the Parallel adapter fans them across the worker pool — unless s
	// natively batches, in which case its own implementation is preferred.
	counting := solver.NewCounting(solver.Parallel(s, opt.Workers))
	// One SetObs call wires the whole chain: the counter streams solve and
	// batch stats, the pool its worker utilization, and an instrumented
	// backend (fd, bem) its iteration histograms and spans. Nil
	// registry/tracer = no-op.
	counting.SetObs(opt.Metrics, opt.Tracer)
	defer opt.Metrics.Phase("core/extract")()
	rootSpan := opt.Tracer.Begin("core/extract").
		Arg("method", opt.Method.String()).Arg("contacts", layout.N()).Arg("workers", opt.Workers)
	defer rootSpan.End()
	res := &Result{Method: opt.Method, Layout: layout, Tree: tree}

	m := &model.Model{Method: opt.Method.String(), N: layout.N(), Layout: layout}
	switch opt.Method {
	case Wavelet:
		// Moment order p = 2, the thesis's choice for every example.
		b, err := wavelet.NewBasisObs(layout, tree, 2, opt.Workers, opt.Metrics, opt.Tracer)
		if err != nil {
			return nil, err
		}
		res.Gw, err = b.ExtractCombined(counting)
		if err != nil {
			return nil, err
		}
		// The model stores the O(n) factored chain of §3.4.3, not the
		// explicit sparse Q: every apply from here on (including this
		// Result's own) goes through it.
		f, err := b.Factored()
		if err != nil {
			return nil, err
		}
		m.Kind = model.QFactored
		m.Levels = f.ExportLevels()
		m.Order = b.ColumnOrder()
	case LowRank:
		lopt := opt.LowRank
		if lopt.MaxRank == 0 && lopt.RankTol == 0 {
			lopt = lowrank.DefaultOptions()
		}
		if lopt.Workers == 0 {
			lopt.Workers = opt.Workers
		}
		lopt.Metrics = opt.Metrics
		lopt.Trace = opt.Tracer
		rep, err := lowrank.Build(layout, tree, counting, lopt)
		if err != nil {
			return nil, err
		}
		tr := rep.Transform()
		res.Gw = tr.Gw
		m.Kind = model.QColumns
		m.Cols = tr.Columns
		m.Order = tr.ColumnOrder()
	default:
		return nil, fmt.Errorf("core: unknown method %v", opt.Method)
	}
	res.Solves = counting.Solves
	rootSpan.Arg("solves", res.Solves)
	if opt.ThresholdFactor > 0 {
		stop := opt.Metrics.Phase("core/threshold")
		tsp := rootSpan.Child("core/threshold")
		res.Gwt = res.Gw.ThresholdForSparsity(opt.ThresholdFactor * res.Gw.Sparsity())
		tsp.Arg("nnz", res.Gwt.NNZ()).End()
		stop()
	}
	m.Gw = res.Gw
	m.Gwt = res.Gwt
	m.Solves = res.Solves
	m.Meta = map[string]string{
		"max_level":        fmt.Sprint(opt.MaxLevel),
		"threshold_factor": fmt.Sprint(opt.ThresholdFactor),
	}
	res.model = m
	res.engine = model.NewEngine(m)
	res.engine.SetMetrics(opt.Metrics)
	res.engine.SetTracer(opt.Tracer)
	return res, nil
}

// N returns the contact count.
func (r *Result) N() int { return r.Layout.N() }

// Apply computes Q·Gw·Qᵀ·x, the sparsified conductance operator.
func (r *Result) Apply(x []float64) []float64 {
	out := make([]float64, r.N())
	r.engine.ApplyInto(out, x)
	return out
}

// ApplyThresholded computes Q·Gwt·Qᵀ·x (panics if no threshold was
// requested).
func (r *Result) ApplyThresholded(x []float64) []float64 {
	if r.Gwt == nil {
		panic("core: no thresholded representation (set Options.ThresholdFactor)")
	}
	out := make([]float64, r.N())
	r.engine.ApplyPanelInto(out, x, 1, 1, true)
	return out
}

// Column returns column j of the sparsified G (using Gw). Only the returned
// slice is allocated — the unit vector and intermediates come from the
// engine's scratch. Callers that can reuse an output buffer should use
// Engine().ColumnInto directly.
func (r *Result) Column(j int) []float64 {
	out := make([]float64, r.N())
	r.engine.ColumnInto(out, j, false)
	return out
}

// ColumnThresholded returns column j of the thresholded representation.
func (r *Result) ColumnThresholded(j int) []float64 {
	if r.Gwt == nil {
		panic("core: no thresholded representation (set Options.ThresholdFactor)")
	}
	out := make([]float64, r.N())
	r.engine.ColumnInto(out, j, true)
	return out
}

// Q materializes the sparse orthogonal change-of-basis matrix in the
// presentation ordering used for spy plots.
func (r *Result) Q() *sparse.Matrix { return r.model.Q() }

// GwReordered returns Gw (or Gwt when thresholded is true) permuted into
// the Q presentation ordering, for spy plots.
func (r *Result) GwReordered(thresholded bool) *sparse.Matrix {
	if thresholded && r.Gwt == nil {
		panic("core: no thresholded representation")
	}
	return r.model.GwReordered(thresholded)
}
