// Package experiments defines the thesis's evaluation workloads and runs
// them: every table (2.1, 2.2, 3.1, 4.1, 4.2, 4.3) is regenerated from the
// cases and runners here, shared between cmd/tables and the benchmark
// harness. DESIGN.md carries the per-experiment index.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"subcouple/internal/bem"
	"subcouple/internal/core"
	"subcouple/internal/fd"
	"subcouple/internal/geom"
	"subcouple/internal/la"
	"subcouple/internal/lowrank"
	"subcouple/internal/metrics"
	"subcouple/internal/model"
	"subcouple/internal/obs"
	"subcouple/internal/solver"
	"subcouple/internal/substrate"
)

// Workers sizes the worker pool used by every extraction and naive solve
// the runners issue; <= 0 selects runtime.NumCPU() and 1 runs fully
// serial. cmd/tables and the benchmark ablations set it from their
// -workers flag. Results are bitwise-identical for any value.
var Workers int

// Metrics, when non-nil, is threaded into every extraction and
// instrumented solver the runners build, so cmd/tables -report can
// aggregate phase timings and iteration histograms across a whole table
// run. Recording never changes any table result.
var Metrics *obs.Metrics

// Tracer, when non-nil, is threaded into every extraction and instrumented
// solver the same way, so cmd/tables -trace can export one Chrome
// trace-event file spanning the whole run. Tracing never changes any table
// result.
var Tracer *obs.Tracer

// ModelDir, when non-empty, is a model-artifact cache directory for the
// default-option sparsify runners: a run first looks for
// <case>-<method>.scm there and serves the saved model (zero substrate
// solves) instead of re-extracting; on a miss the freshly extracted model
// is saved for the next run. Table statistics are unchanged either way —
// solve counts always report the extraction that produced the model, and
// every other number is computed from the (bitwise-identical) served
// operator. Ablation runs with non-default low-rank options bypass the
// cache. cmd/tables sets it from its -models flag.
var ModelDir string

// Case is one thesis example: a layout on the standard substrate.
type Case struct {
	Name     string
	Layout   *geom.Layout
	MaxLevel int
	NP       int // eigenfunction-solver panels per side
}

// Scale selects thesis-size (Full) or fast development-size (Small)
// versions of the examples.
type Scale int

const (
	// Small shrinks the examples ~4x for quick runs and benchmarks.
	Small Scale = iota
	// Full is thesis-size (n = 1024 for Examples 1–3).
	Full
)

// Example1a is the regular grid of contacts (Fig 3-6; thesis Ex 1a / Ch.4
// Ex 1).
func Example1a(s Scale) Case {
	if s == Small {
		return Case{"1a-regular", geom.RegularGrid(64, 64, 16, 16, 2), 4, 64}
	}
	return Case{"1a-regular", geom.RegularGrid(128, 128, 32, 32, 2), 5, 128}
}

// Example2 is the irregular same-size layout with large gaps (Fig 3-7).
func Example2(s Scale) Case {
	if s == Small {
		return Case{"2-irregular", geom.IrregularSameSize(64, 64, 16, 16, 2, 0.6, 7), 4, 64}
	}
	return Case{"2-irregular", geom.IrregularSameSize(128, 128, 32, 32, 2, 0.6, 7), 5, 128}
}

// Example3 is the alternating-size grid (Fig 3-8; thesis Ex 3 in Ch. 3,
// Ex 2 in Ch. 4).
func Example3(s Scale) Case {
	if s == Small {
		return Case{"3-alternating", geom.AlternatingGrid(64, 64, 16, 16, 1, 3), 4, 64}
	}
	return Case{"3-alternating", geom.AlternatingGrid(128, 128, 32, 32, 1, 3), 5, 128}
}

// ExampleMixed is the irregularly-shaped-contact layout (Fig 4-8; Ch. 4
// Ex 3): small squares, long thin contacts and rings, split at finest-level
// square boundaries.
func ExampleMixed() Case {
	raw := geom.MixedShapes(128)
	split := raw.SplitToGrid(128.0 / (1 << 5))
	return Case{"4-mixed-shapes", split, 5, 128}
}

// Example4 is the 64x64 alternating grid (thesis Ex 4, 4096 contacts),
// generated behind the stable geom.Paper4096 name.
func Example4() Case {
	return Case{"ex4-4096", geom.Paper4096(), 6, 256}
}

// Example5 is the 10240-contact large mixed layout (Fig 4-10, thesis Ex 5),
// generated behind the stable geom.Paper10240 name.
func Example5() Case {
	return Case{"ex5-10240", geom.Paper10240(), 7, 256}
}

// Profile returns the thesis Ch. 3.7 substrate for a case: two layers with
// 100:1 conductivity and the resistive shim approximating a floating
// backplane, 40 units deep.
func Profile(c Case) *substrate.Profile {
	return substrate.TwoLayer(c.Layout.A, 40, 1, true)
}

// BemSolver builds the eigenfunction black-box solver for a case. The PCG
// tolerance is 1e-6: comfortably below the percent-level accuracy the
// sparsification experiments measure, and several times faster than the
// solver's 1e-9 default.
func BemSolver(c Case) (*bem.Solver, error) {
	s, err := bem.New(Profile(c), c.Layout, c.NP)
	if err != nil {
		return nil, err
	}
	s.Tol = 1e-6
	s.Workers = Workers
	s.SetObs(Metrics, Tracer)
	return s, nil
}

// ExactG extracts the dense conductance matrix with the eigenfunction
// solver (n black-box calls — the naive method the thesis improves on).
func ExactG(c Case) (*la.Dense, error) {
	s, err := BemSolver(c)
	if err != nil {
		return nil, err
	}
	return solver.ExtractDense(s)
}

// SparsifyStats is one row of Tables 3.1 / 4.1 / 4.2.
type SparsifyStats struct {
	Example          string
	Method           core.Method
	N                int
	Solves           int
	SolveReduction   float64
	SparsityGw       float64
	SparsityQ        float64
	SparsityGwt      float64
	MaxRel           float64 // unthresholded
	FracAbove10      float64 // unthresholded
	MaxRelThresh     float64
	FracAbove10Thr   float64
	ExtractSeconds   float64
	ErrSampleColumns int
}

// RunSparsify extracts a sparse representation with the given method,
// driving the black box from the precomputed exact G, and measures
// accuracy entrywise against it. sampleCols > 0 limits the error
// measurement to that many evenly spread columns.
func RunSparsify(c Case, g *la.Dense, method core.Method, sampleCols int) (SparsifyStats, error) {
	return runSparsify(c, solver.NewDense(g), g, method, sampleCols, lowrank.DefaultOptions(), true)
}

// RunSparsifyOpts is RunSparsify with explicit low-rank options (for
// ablations). It never uses the ModelDir cache — cached artifacts carry the
// default options.
func RunSparsifyOpts(c Case, g *la.Dense, method core.Method, sampleCols int, lopt lowrank.Options) (SparsifyStats, error) {
	return runSparsify(c, solver.NewDense(g), g, method, sampleCols, lopt, false)
}

// RunSparsifyBlackBox extracts using a live black-box solver (for the large
// examples where the dense G is never formed) and measures errors against
// sampled exact columns obtained from the same solver.
func RunSparsifyBlackBox(c Case, s solver.Solver, method core.Method, sampleCols int) (SparsifyStats, error) {
	cols := metrics.SampleColumns(c.Layout.N(), sampleCols)
	exact, err := solver.ExtractColumns(s, cols)
	if err != nil {
		return SparsifyStats{}, err
	}
	st, err := runSparsifySampled(c, s, exact, cols, method, lowrank.DefaultOptions(), true)
	return st, err
}

func runSparsify(c Case, s solver.Solver, g *la.Dense, method core.Method, sampleCols int, lopt lowrank.Options, cacheable bool) (SparsifyStats, error) {
	cols := metrics.SampleColumns(c.Layout.N(), c.Layout.N())
	if sampleCols > 0 {
		cols = metrics.SampleColumns(c.Layout.N(), sampleCols)
	}
	exact := la.NewDense(g.Rows, len(cols))
	for ci, j := range cols {
		exact.SetCol(ci, g.Col(j))
	}
	return runSparsifySampled(c, s, exact, cols, method, lopt, cacheable)
}

// modelPath names a case's cached artifact inside ModelDir.
func modelPath(c Case, method core.Method) string {
	return filepath.Join(ModelDir, fmt.Sprintf("%s-%s.scm", c.Name, method))
}

// loadCachedModel serves a previously saved artifact for the case, or nil on
// any miss (absent, corrupt, or extracted for a different layout — the cache
// is best-effort; a miss just re-extracts).
func loadCachedModel(c Case, method core.Method) *core.Result {
	data, err := os.ReadFile(modelPath(c, method))
	if err != nil {
		return nil
	}
	m, err := model.Decode(data)
	if err != nil || m.N != c.Layout.N() || m.Method != method.String() {
		return nil
	}
	res, err := core.FromModel(m)
	if err != nil {
		return nil
	}
	res.Engine().SetMetrics(Metrics)
	res.Engine().SetTracer(Tracer)
	return res
}

// saveCachedModel writes the freshly extracted model for future runs
// (best-effort: a failed write only disables reuse).
func saveCachedModel(c Case, method core.Method, res *core.Result) {
	data, err := model.Encode(res.Model())
	if err != nil {
		return
	}
	_ = os.WriteFile(modelPath(c, method), data, 0o644)
}

func runSparsifySampled(c Case, s solver.Solver, exact *la.Dense, cols []int, method core.Method, lopt lowrank.Options, cacheable bool) (SparsifyStats, error) {
	start := time.Now()
	cached := ModelDir != "" && cacheable
	var res *core.Result
	if cached {
		res = loadCachedModel(c, method)
	}
	if res == nil {
		var err error
		res, err = core.Extract(s, c.Layout, core.Options{
			Method: method, MaxLevel: c.MaxLevel, ThresholdFactor: 6, LowRank: lopt,
			Workers: Workers, Metrics: Metrics, Tracer: Tracer,
		})
		if err != nil {
			return SparsifyStats{}, fmt.Errorf("extract %s/%v: %w", c.Name, method, err)
		}
		if cached {
			saveCachedModel(c, method, res)
		}
	}
	st := SparsifyStats{
		Example: c.Name,
		Method:  method,
		N:       c.Layout.N(),
		// The model records the extraction that produced it, so solve
		// statistics are identical whether this run extracted or served a
		// cached artifact.
		Solves:           res.Model().Solves,
		SolveReduction:   metrics.SolveReduction(c.Layout.N(), res.Model().Solves),
		SparsityGw:       res.Gw.Sparsity(),
		SparsityQ:        res.Q().Sparsity(),
		SparsityGwt:      res.Gwt.Sparsity(),
		ExtractSeconds:   time.Since(start).Seconds(),
		ErrSampleColumns: len(cols),
	}
	// Error measurement on the selected columns (exact's columns are
	// already in cols order).
	eu := metrics.Compare(exact, func(j int) []float64 { return res.Column(cols[j]) }, nil, 0.1)
	st.MaxRel, st.FracAbove10 = eu.MaxRel, eu.FracAbove
	et := metrics.Compare(exact, func(j int) []float64 { return res.ColumnThresholded(cols[j]) }, nil, 0.1)
	st.MaxRelThresh, st.FracAbove10Thr = et.MaxRel, et.FracAbove
	return st, nil
}

// PrecondStats is one row of Table 2.1.
type PrecondStats struct {
	Name          string
	AvgIterations float64
}

// Table21 reproduces the preconditioner-effectiveness experiment: average
// PCG iterations per solve for the fast-Poisson preconditioner with
// pure-Dirichlet, pure-Neumann and area-weighted top-face blending, over
// the several hundred solves of a wavelet sparsification run on a regular
// layout.
func Table21(scale Scale) ([]PrecondStats, error) {
	// Sparse contact coverage (~6% of top-surface grid nodes) on a
	// floating-backplane substrate with a resistive top layer a few cells
	// deep — the regime where the top-face boundary treatment dominates
	// smooth-mode convergence, as in the thesis's FD experiments. The
	// blend is defined for the Outside Dirichlet-node placement (§2.2.2).
	// The preconditioner comparison is n-independent in shape; both scales
	// use the 64-unit, 6%-coverage configuration (the 128-unit variant has
	// 655k grid nodes and ~1000 solves — hours of runtime for the same
	// ordering). Full adds nothing but solves here.
	layout := geom.RegularGrid(64, 64, 8, 8, 2)
	maxLevel := 3
	_ = scale
	prof := &substrate.Profile{A: layout.A, B: layout.B, Grounded: false,
		Layers: []substrate.Layer{
			{Thickness: 4, Sigma: 1},
			{Thickness: 36, Sigma: 100},
		}}
	configs := []struct {
		name  string
		blend float64
		area  bool
	}{
		{"Dirichlet", 1, false},
		{"Neumann", 0, false},
		{"area-weighted", 0, true},
	}
	var out []PrecondStats
	for _, cfg := range configs {
		s, err := fd.New(prof, layout, fd.Options{
			H: 1, Placement: fd.Outside, Precond: fd.PrecondFastPoisson,
			TopBlend: cfg.blend, AreaWeighted: cfg.area, Tol: 1e-8,
		})
		if err != nil {
			return nil, err
		}
		if _, err := core.Extract(s, layout, core.Options{
			Method: core.Wavelet, MaxLevel: maxLevel, Workers: Workers, Metrics: Metrics,
			Tracer: Tracer,
		}); err != nil {
			return nil, err
		}
		out = append(out, PrecondStats{cfg.name, s.AvgIterations()})
	}
	return out, nil
}

// SolverSpeed is one row of Table 2.2.
type SolverSpeed struct {
	Name            string
	ItersPerSolve   float64
	SecondsPerSolve float64
}

// Table22 reproduces the finite-difference versus eigenfunction solve-speed
// comparison: 10 solves on an example with the thesis PLL substrate
// thickness.
func Table22(scale Scale) ([]SolverSpeed, error) {
	layout := geom.RegularGrid(64, 64, 8, 8, 4)
	h := 1.0
	np := 64
	if scale == Small {
		layout = geom.RegularGrid(32, 32, 4, 4, 4)
		h = 1.0
		np = 32
	}
	prof := &substrate.Profile{A: layout.A, B: layout.B, Grounded: true,
		Layers: []substrate.Layer{
			{Thickness: 1, Sigma: 1},
			{Thickness: 37, Sigma: 100},
			{Thickness: 2, Sigma: 0.1},
		}}
	fdS, err := fd.New(prof, layout, fd.Options{
		H: h, Placement: fd.Inside, Precond: fd.PrecondFastPoisson, AreaWeighted: true, Tol: 1e-6,
	})
	if err != nil {
		return nil, err
	}
	bemS, err := bem.New(prof, layout, np)
	if err != nil {
		return nil, err
	}
	bemS.Tol = 1e-6
	fdS.SetObs(Metrics, Tracer)
	bemS.SetObs(Metrics, Tracer)
	run := func(s solver.Solver) (float64, error) {
		e := make([]float64, layout.N())
		start := time.Now()
		for k := 0; k < 10; k++ {
			e[k%layout.N()] = 1
			if _, err := s.Solve(e); err != nil {
				return 0, err
			}
			e[k%layout.N()] = 0
		}
		return time.Since(start).Seconds() / 10, nil
	}
	tf, err := run(fdS)
	if err != nil {
		return nil, err
	}
	tb, err := run(bemS)
	if err != nil {
		return nil, err
	}
	return []SolverSpeed{
		{"finite difference", fdS.AvgIterations(), tf},
		{"eigenfunction", bemS.AvgIterations(), tb},
	}, nil
}
