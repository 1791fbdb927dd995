package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"subcouple/internal/bem"
	"subcouple/internal/core"
	"subcouple/internal/dct"
	"subcouple/internal/experiments"
	"subcouple/internal/geom"
	"subcouple/internal/la"
	"subcouple/internal/lowrank"
	"subcouple/internal/metrics"
	"subcouple/internal/model"
	"subcouple/internal/obs"
	"subcouple/internal/quadtree"
	"subcouple/internal/solver"
	"subcouple/internal/sparse"
	"subcouple/internal/wavelet"
)

const (
	// extractWorkers is core.Options.Workers for every extraction: one
	// worker per CPU of the two-CPU machine the baseline was taken on.
	extractWorkers = 2
	// setupRepeats is how many times an extraction workload builds its
	// layout and black box; setup_s is the median.
	setupRepeats = 21
	// metricColumns is how many evenly spread columns rel_err is measured
	// on. They do not depend on the seed, so rel_err changes only when the
	// extracted operator does.
	metricColumns = 16
	// kernelRepeats is how many calls each panel-operator and DCT time is
	// the median of.
	kernelRepeats = 32
)

// Coupling-error ceilings: a check column whose off-diagonal error exceeds
// the ceiling fails the run. The BEM operator is 5× above its worst column
// over all 1024 columns (0.031), the kernel operators 7× (0.007).
const (
	bemCeiling    = 0.15
	kernelCeiling = 0.05
)

// caseFor returns the alternating-size grid (thesis Example 3) with n
// contacts: the full 1024-contact example, its 256-contact small version,
// or a 64-contact version for tests.
func caseFor(n int) (experiments.Case, error) {
	switch n {
	case 1024:
		return experiments.Example3(experiments.Full), nil
	case 256:
		return experiments.Example3(experiments.Small), nil
	case 64:
		return experiments.Case{Name: "3-alternating-64", Layout: geom.AlternatingGrid(32, 32, 8, 8, 1, 3), MaxLevel: 3, NP: 32}, nil
	}
	return experiments.Case{}, fmt.Errorf("no alternating grid with %d contacts", n)
}

// timedSolver is the black box handed to core.Extract, wrapped so the wall
// time spent inside it is measured from outside the algorithm. core.Extract
// puts its own Parallel adapter and counter on top; timedSolver answers a
// batch as the wrapped solver would under that adapter (natively when it
// batches, else fanned out over the same worker count), so the solves and
// the outputs do not change.
type timedSolver struct {
	s       solver.Solver
	workers int
	parent  *obs.Span // the running core.Extract span; nil untraced

	mu     sync.Mutex
	active int       // calls in flight
	since  time.Time // when active last rose from zero
	busy   time.Duration
	calls  int
	rhs    int
}

func newTimedSolver(s solver.Solver) *timedSolver { return &timedSolver{s: s} }

func (t *timedSolver) N() int { return t.s.N() }

// SetWorkers implements solver.WorkerSetter; core.Extract's Parallel
// adapter passes its worker count down through it.
func (t *timedSolver) SetWorkers(w int) {
	t.workers = w
	if ws, ok := t.s.(solver.WorkerSetter); ok {
		ws.SetWorkers(w)
	}
}

func (t *timedSolver) Solve(v []float64) ([]float64, error) {
	t.enter()
	defer t.leave(1)
	return t.s.Solve(v)
}

func (t *timedSolver) SolveBatch(vs [][]float64) ([][]float64, error) {
	sp := t.parent.Child("solver.SolveBatch").Arg("rhs", len(vs))
	defer sp.End()
	inner := t.s
	if _, ok := inner.(solver.BatchSolver); !ok {
		inner = solver.Parallel(inner, t.workers)
	}
	t.enter()
	defer t.leave(len(vs))
	return solver.SolveBatch(inner, vs)
}

// enter and leave bracket one call; busy accumulates the time during which
// at least one call was in flight, so overlapping calls count once.
func (t *timedSolver) enter() {
	t.mu.Lock()
	if t.active == 0 {
		t.since = time.Now()
	}
	t.active++
	t.mu.Unlock()
}

func (t *timedSolver) leave(rhs int) {
	t.mu.Lock()
	t.active--
	if t.active == 0 {
		t.busy += time.Since(t.since)
	}
	t.calls++
	t.rhs += rhs
	t.mu.Unlock()
}

// take returns and resets the time spent inside the black box and the calls
// and right-hand sides it answered since the last take.
func (t *timedSolver) take() (busy time.Duration, calls, rhs int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	busy, calls, rhs = t.busy, t.calls, t.rhs
	t.busy, t.calls, t.rhs = 0, 0, 0
	return busy, calls, rhs
}

// extractOnce runs core.Extract once on the timed black box.
func extractOnce(ts *timedSolver, c experiments.Case, m core.Method, parent *obs.Span) (*core.Result, time.Duration, error) {
	sp := parent.Child("core.Extract").Arg("method", m.String())
	ts.parent = sp
	start := time.Now()
	res, err := core.Extract(ts, c.Layout, core.Options{Method: m, MaxLevel: c.MaxLevel, Workers: extractWorkers})
	wall := time.Since(start)
	ts.parent = nil
	sp.End()
	if err != nil {
		return nil, 0, fmt.Errorf("%v extraction: %w", m, err)
	}
	return res, wall, nil
}

// refColumns holds exact columns of G: column k of g is column cols[k].
type refColumns struct {
	cols []int
	g    *la.Dense
}

func denseColumns(g *la.Dense, cols []int) refColumns {
	ref := la.NewDense(g.Rows, len(cols))
	for k, j := range cols {
		ref.SetCol(k, g.Col(j))
	}
	return refColumns{cols, ref}
}

func solvedColumns(s solver.Solver, cols []int) (refColumns, error) {
	g, err := solver.ExtractColumns(solver.Parallel(s, extractWorkers), cols)
	if err != nil {
		return refColumns{}, fmt.Errorf("reference columns: %w", err)
	}
	return refColumns{cols, g}, nil
}

// extractSpec is one extraction workload: a layout, a black box, the
// methods one op runs, and the exact columns its outputs are checked on.
type extractSpec struct {
	c       experiments.Case
	bb      solver.Solver
	methods []core.Method
	ceiling float64
	metric  refColumns
	check   refColumns
}

func runExtractBEM(ctx context.Context, cfg *config, rep *report) error {
	var (
		c experiments.Case
		s *bem.Solver
	)
	err := timeSetup(rep, setupRepeats, inProcess(func() error {
		var err error
		if c, err = caseFor(cfg.extractN); err != nil {
			return err
		}
		s, err = experiments.BemSolver(c)
		return err
	}), nil)
	if err != nil {
		return err
	}
	n := c.Layout.N()
	spec := &extractSpec{c: c, bb: s, methods: []core.Method{core.LowRank}, ceiling: bemCeiling}
	if spec.metric, err = solvedColumns(s, metrics.SampleColumns(n, metricColumns)); err != nil {
		return err
	}
	if spec.check, err = solvedColumns(s, stratified(newRNG(cfg.seed, streamCheckCols), n, 16)); err != nil {
		return err
	}
	results, err := measureExtraction(ctx, cfg, rep, spec)
	if err != nil {
		return err
	}
	return serveExtracted(ctx, cfg, rep, c, kernelMatrix(c.Layout), results)
}

func runExtractSynth(ctx context.Context, cfg *config, rep *report) error {
	var (
		c experiments.Case
		g *la.Dense
	)
	err := timeSetup(rep, setupRepeats, inProcess(func() error {
		var err error
		if c, err = caseFor(cfg.extractN); err != nil {
			return err
		}
		g = kernelMatrix(c.Layout)
		return nil
	}), nil)
	if err != nil {
		return err
	}
	spec := kernelSpec(cfg, c, g, core.LowRank, core.Wavelet)
	results, err := measureExtraction(ctx, cfg, rep, spec)
	if err != nil {
		return err
	}
	return serveExtracted(ctx, cfg, rep, c, g, results)
}

// kernelSpec extracts with methods against the dense kernel g on c's
// layout, checked on 64 of the seed's columns.
func kernelSpec(cfg *config, c experiments.Case, g *la.Dense, methods ...core.Method) *extractSpec {
	n := c.Layout.N()
	return &extractSpec{c: c, bb: solver.NewDense(g), methods: methods, ceiling: kernelCeiling,
		metric: denseColumns(g, metrics.SampleColumns(n, metricColumns)),
		check:  denseColumns(g, stratified(newRNG(cfg.seed, streamCheckCols), n, 64)),
	}
}

// timeSetup runs start repeats times, counting each in the "setup" phase.
// start returns the CPU time the system under test spent on the set-up.
// setup_s is the median of those CPU times and setup.wall_s the median wall
// time. Each repeat starts from a collected heap, so garbage left by the
// previous one is not charged to it. undo, when given, tears down what
// start built before the next repeat (untimed); the last repeat is kept.
func timeSetup(rep *report, repeats int, start func() (time.Duration, error), undo func() error) error {
	ph := rep.phase("setup")
	var cpu, wall []float64
	for i := 0; i < repeats; i++ {
		runtime.GC()
		t0 := time.Now()
		c, err := start()
		ph.record(err)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		wall = append(wall, time.Since(t0).Seconds())
		cpu = append(cpu, c.Seconds())
		if undo != nil && i < repeats-1 {
			if err := undo(); err != nil {
				return fmt.Errorf("setup: %w", err)
			}
		}
	}
	rep.set("setup_s", median(cpu))
	rep.set("setup.wall_s", median(wall))
	return nil
}

// inProcess adapts a set-up that runs in this process to timeSetup: its
// cost is the CPU time this process used while it ran.
func inProcess(f func() error) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		c0 := selfCPU()
		err := f()
		return selfCPU() - c0, err
	}
}

// measureExtraction is the timed phase of an extraction workload: ops run
// back to back until cfg.timed has passed (at least one), each checked. It
// sets the extraction's end-to-end metrics, the extraction-layer metrics
// and the client metrics, and returns the first op's results.
func measureExtraction(ctx context.Context, cfg *config, rep *report, spec *extractSpec) ([]*core.Result, error) {
	rss := sampleRSS(0)
	defer rss.stop()
	ops, err := runOps(ctx, cfg, rep, spec, "timed", 1, cfg.timed)
	if err != nil {
		return nil, err
	}
	rssMean, rssPeak, err := rss.stop()
	if err != nil {
		return nil, err
	}
	rep.set("rss_mb", rssMean)
	rep.set("process.peak_rss_mb", rssPeak)
	rep.set("client.p50_ms", median(ops.wallMs))
	rep.set("client.p90_ms", quantile(ops.wallMs, 0.9))
	rep.set("client.p99_ms", quantile(ops.wallMs, 0.99))
	rep.set("client.ops_per_s", float64(len(ops.wallMs))/ops.busy.Seconds())
	return ops.first, nil
}

// opsResult is what runOps measured: the first op's models, each op's wall
// time in ms, and the wall time of all ops.
type opsResult struct {
	first  []*core.Result
	wallMs []float64
	busy   time.Duration
}

// runOps runs ops of spec back to back until at least minOps have run and
// dur has passed, counting and checking each in the phase named name. Each
// op starts from a collected heap with the free memory returned to the OS,
// so neither its CPU time nor rss_mb depends on where earlier collections
// fell. It sets extract_cpu_s to the median CPU time of an op, the model
// metrics of the first op and the black-box split per op.
func runOps(ctx context.Context, cfg *config, rep *report, spec *extractSpec, name string, minOps int, dur time.Duration) (opsResult, error) {
	ts := newTimedSolver(spec.bb)
	ph := rep.phase(name)
	var (
		ops    opsResult
		cpu    []float64
		inside time.Duration
		fps    []uint64
	)
	start := time.Now()
	for len(cpu) < minOps || time.Since(start) < dur {
		if err := ctx.Err(); err != nil {
			return ops, err
		}
		debug.FreeOSMemory()
		sp := cfg.tracer.Begin("bench/"+name).Arg("id", len(cpu))
		t0, c0 := time.Now(), selfCPU()
		results, in, err := extractOp(spec, ts, sp)
		wall, c := time.Since(t0), selfCPU()-c0
		sp.End()
		if err != nil {
			ph.record(err)
			return ops, err
		}
		ops.wallMs = append(ops.wallMs, ms(wall))
		ops.busy += wall
		cpu = append(cpu, c.Seconds())
		inside += in
		if ops.first == nil {
			ops.first = results
		}
		ph.record(checkOp(spec, results, &fps))
	}
	ph.WallS = time.Since(start).Seconds()
	rep.set("extract_cpu_s", median(cpu))
	setModelMetrics(rep, spec, ops.first)
	busy, calls, rhs := ts.take()
	setBlackboxMetrics(rep, len(cpu), busy, inside, calls, rhs)
	return ops, nil
}

// extractOp runs one op of spec, each of its methods once through ts, and
// returns the results and the time spent in core.Extract.
func extractOp(spec *extractSpec, ts *timedSolver, parent *obs.Span) ([]*core.Result, time.Duration, error) {
	var (
		results []*core.Result
		inside  time.Duration
	)
	for _, m := range spec.methods {
		res, wall, err := extractOnce(ts, spec.c, m, parent)
		if err != nil {
			return nil, 0, err
		}
		results = append(results, res)
		inside += wall
	}
	return results, inside, nil
}

// checkOp checks one op's models: the coupling error of every check column
// within the ceiling, and each model's apply fingerprint equal to the first
// op's (fps collects those).
func checkOp(spec *extractSpec, results []*core.Result, fps *[]uint64) error {
	for i, res := range results {
		if _, worst := couplingError(spec.check.g, spec.check.cols, res.Column); !(worst <= spec.ceiling) {
			return fmt.Errorf("%v: coupling error %.4g on a check column exceeds the ceiling %g", spec.methods[i], worst, spec.ceiling)
		}
		fp := model.FingerprintOf(res.Model(), extractWorkers)
		if len(*fps) <= i {
			*fps = append(*fps, fp)
		} else if fp != (*fps)[i] {
			return fmt.Errorf("%v: fingerprint %016x differs from the first extraction's %016x", spec.methods[i], fp, (*fps)[i])
		}
	}
	return nil
}

// setModelMetrics sets the end-to-end metrics of one op's models: rel_err,
// the worst model's aggregate coupling error on the fixed metric columns,
// and solves and gw_nnz summed over the models.
func setModelMetrics(rep *report, spec *extractSpec, results []*core.Result) {
	var (
		relErr      float64
		solves, nnz int
	)
	for _, res := range results {
		agg, _ := couplingError(spec.metric.g, spec.metric.cols, res.Column)
		relErr = math.Max(relErr, agg)
		solves += res.Solves
		nnz += res.Gw.NNZ()
	}
	rep.set("rel_err", relErr)
	rep.set("solves", float64(solves))
	rep.set("gw_nnz", float64(nnz))
}

// setBlackboxMetrics splits the time of ops ops between the black box and
// the algorithm, per op, from the totals a timedSolver and core.Extract
// calls measured.
func setBlackboxMetrics(rep *report, ops int, busy, inside time.Duration, calls, rhs int) {
	n := float64(ops)
	rep.set("blackbox.s", busy.Seconds()/n)
	rep.set("blackbox.calls", float64(calls)/n)
	rep.set("blackbox.batch_mean", float64(rhs)/float64(calls))
	rep.set("algorithm.s", (inside-busy).Seconds()/n)
}

// serveExtracted ends an extraction workload. The first model the first op
// extracted is served by one subserve, and a direct phase of raw-codec
// applies sets apply_p10_ms: the G·x latency the extraction's user sees once
// the model is served. A traced run then adds the layer probes, against
// kernel for the algorithm's steps, and the fleet probe on every model.
func serveExtracted(ctx context.Context, cfg *config, rep *report, c experiments.Case, kernel *la.Dense, results []*core.Result) error {
	artifacts, err := encodeModels(results)
	if err != nil {
		return err
	}
	tr, err := newTraffic(cfg, filepath.Join(cfg.runDir, "apply"), artifacts[:1])
	if err != nil {
		return err
	}
	f, err := startFleet(ctx, cfg, 1, tr, tr.dir)
	if err != nil {
		return err
	}
	direct, err := directPhase(ctx, cfg, rep, f.replicas[0], tr, true)
	if serr := f.stop(); serr != nil {
		rep.phase("shutdown").record(serr)
	}
	if err != nil {
		return err
	}
	setApplyMetrics(rep, direct)
	if cfg.tracer == nil {
		return nil
	}
	if err := probeLayers(cfg, rep, c, kernel, artifacts[0]); err != nil {
		return err
	}
	if tr, err = newTraffic(cfg, filepath.Join(cfg.runDir, "probe"), artifacts); err != nil {
		return err
	}
	return probeServing(ctx, cfg, rep, tr, true, direct)
}

// encodeModels returns the artifact bytes of each result's model.
func encodeModels(results []*core.Result) ([][]byte, error) {
	var arts [][]byte
	for _, res := range results {
		data, err := model.Encode(res.Model())
		if err != nil {
			return nil, err
		}
		arts = append(arts, data)
	}
	return arts, nil
}

// probeLayers measures, in a traced run, the layers below serving by direct
// calls on the workload's own inputs: the BEM solver and its DCTs on c's
// panel grid, the algorithm steps against the dense kernel on c's layout,
// and single-vector applies of artifact.
func probeLayers(cfg *config, rep *report, c experiments.Case, kernel *la.Dense, artifact []byte) error {
	ph := rep.phase("probe")
	sp := cfg.tracer.Begin("probe/bem")
	err := bemProbe(cfg, rep, c)
	sp.End()
	if err != nil {
		return fmt.Errorf("bem probe: %w", err)
	}
	sp = cfg.tracer.Begin("probe/algorithm")
	err = algorithmProbe(rep, ph, c, kernel)
	sp.End()
	if err != nil {
		return fmt.Errorf("algorithm probe: %w", err)
	}
	sp = cfg.tracer.Begin("probe/model")
	err = modelProbe(cfg, rep, artifact)
	sp.End()
	if err != nil {
		return fmt.Errorf("model probe: %w", err)
	}
	return nil
}

// bemProbe times the eigenfunction solver's layers on c's panel grid by
// direct calls on a fresh solver: 16 serial solves on seeded unit vectors
// (with their mean CG iterations), the np×np panel operator, and the
// forward and inverse 2-D DCTs inside it.
func bemProbe(cfg *config, rep *report, c experiments.Case) error {
	s, err := experiments.BemSolver(c)
	if err != nil {
		return err
	}
	n := s.N()
	rng := newRNG(cfg.seed, streamProbe)
	var solveMs []float64
	for _, j := range stratified(rng, n, 16) {
		e := make([]float64, n)
		e[j] = 1
		t0 := time.Now()
		if _, err := s.Solve(e); err != nil {
			return err
		}
		solveMs = append(solveMs, ms(time.Since(t0)))
	}
	rep.set("bem.cg_iters", s.AvgIterations())
	rep.set("bem.solve_ms", median(solveMs))

	field := randomVector(rng, c.NP*c.NP)
	buf := make([]float64, len(field))
	timeOn := func(f func([]float64)) float64 {
		var times []float64
		for i := 0; i < kernelRepeats; i++ {
			copy(buf, field)
			t0 := time.Now()
			f(buf)
			times = append(times, ms(time.Since(t0)))
		}
		return median(times)
	}
	rep.set("bem.operator_ms", timeOn(s.ApplyPanelOperator))
	rep.set("dct.forward_ms", timeOn(func(a []float64) { dct.DCT2D2(a, c.NP, c.NP) }))
	rep.set("dct.inverse_ms", timeOn(func(a []float64) { dct.DCT2D3(a, c.NP, c.NP) }))
	return nil
}

// algorithmProbe times the algorithm's steps one call at a time, in the
// order core.Extract makes them, against the dense kernel on c's layout:
// quadtree.Build, lowrank.Build, Rep.Transform for the low-rank method and
// quadtree.Build, wavelet.NewBasisWorkers, ExtractCombined, Factored for
// the wavelet method. Time inside the black box is subtracted, so each
// number is the layer's own. Each sequence is then checked against
// core.Extract (the same solves and a bitwise-identical Gw) in ph.
func algorithmProbe(rep *report, ph *phase, c experiments.Case, kernel *la.Dense) error {
	ts := newTimedSolver(solver.NewDense(kernel))
	counting := solver.NewCounting(solver.Parallel(ts, extractWorkers))
	tree, err := quadtree.Build(c.Layout, c.MaxLevel)
	if err != nil {
		return err
	}
	opt := lowrank.DefaultOptions()
	opt.Workers = extractWorkers
	t0 := time.Now()
	r, err := lowrank.Build(c.Layout, tree, counting, opt)
	if err != nil {
		return err
	}
	build := time.Since(t0)
	busy, _, _ := ts.take()
	t0 = time.Now()
	tr := r.Transform()
	rep.set("lowrank.transform_s", time.Since(t0).Seconds())
	rep.set("lowrank.build_s", (build - busy).Seconds())
	ph.record(sameAsExtract(c, kernel, core.LowRank, counting.Solves, tr.Gw))

	counting = solver.NewCounting(solver.Parallel(ts, extractWorkers))
	if tree, err = quadtree.Build(c.Layout, c.MaxLevel); err != nil {
		return err
	}
	t0 = time.Now()
	b, err := wavelet.NewBasisWorkers(c.Layout, tree, 2, extractWorkers)
	if err != nil {
		return err
	}
	basis := time.Since(t0)
	t0 = time.Now()
	gw, err := b.ExtractCombined(counting)
	if err != nil {
		return err
	}
	extract := time.Since(t0)
	busy, _, _ = ts.take()
	t0 = time.Now()
	if _, err := b.Factored(); err != nil {
		return err
	}
	rep.set("wavelet.basis_s", (basis + time.Since(t0)).Seconds())
	rep.set("wavelet.extract_s", (extract - busy).Seconds())
	ph.record(sameAsExtract(c, kernel, core.Wavelet, counting.Solves, gw))
	return nil
}

// sameAsExtract runs core.Extract on the same inputs and fails unless it
// makes the same number of solves and returns the same Gw bit for bit.
func sameAsExtract(c experiments.Case, kernel *la.Dense, m core.Method, solves int, gw *sparse.Matrix) error {
	want, err := core.Extract(solver.NewDense(kernel), c.Layout, core.Options{Method: m, MaxLevel: c.MaxLevel, Workers: extractWorkers})
	if err != nil {
		return err
	}
	if want.Solves != solves || !sameMatrix(want.Gw, gw) {
		return fmt.Errorf("%v: the step-by-step extraction (%d solves, %d nnz) no longer matches core.Extract (%d solves, %d nnz)",
			m, solves, gw.NNZ(), want.Solves, want.Gw.NNZ())
	}
	return nil
}

func sameMatrix(a, b *sparse.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || len(a.Val) != len(b.Val) || len(a.RowPtr) != len(b.RowPtr) {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for i := range a.Val {
		if a.ColIdx[i] != b.ColIdx[i] || math.Float64bits(a.Val[i]) != math.Float64bits(b.Val[i]) {
			return false
		}
	}
	return true
}

// modelProbe times Engine.ApplyInto on the decoded artifact bytes: single
// vectors, one goroutine, for at least 200 ms.
func modelProbe(cfg *config, rep *report, artifact []byte) error {
	m, err := model.Decode(artifact)
	if err != nil {
		return err
	}
	e := model.NewEngine(m)
	x := randomVector(newRNG(cfg.seed, streamProbe), m.N)
	y := make([]float64, m.N)
	var us []float64
	start := time.Now()
	for len(us) < 16 || time.Since(start) < 200*time.Millisecond {
		t0 := time.Now()
		e.ApplyInto(y, x)
		us = append(us, time.Since(t0).Seconds()*1e6)
	}
	rep.set("model.apply_us", median(us))
	return nil
}
