package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"subcouple/internal/core"
	"subcouple/internal/experiments"
	"subcouple/internal/la"
	"subcouple/internal/model"
	"subcouple/internal/serve"
)

const (
	// clients is the closed-loop client count of every load phase: one per
	// CPU of the two-CPU baseline machine. A circuit simulator waits for
	// each G·x before it asks for the next, so every client does too.
	clients = 2
	// poolSize is how many seeded vectors the clients cycle through.
	poolSize = 64
	// swapEvery is how often fleet phases flip a replica's alias.
	swapEvery = 50 * time.Millisecond
	// serveSetupRepeats is how many times a serving workload starts its
	// daemons; setup_s is the median.
	serveSetupRepeats = 7
	// alias is the name every replica serves its model under.
	alias = "m"
	// prepareOps and prepareFor bound how often a serving workload repeats
	// the extraction of its artifacts, so that extract_cpu_s is a median of
	// several ops even where one op takes a tenth of a second.
	prepareOps = 3
	prepareFor = 2 * time.Second
)

func runServeDirect(ctx context.Context, cfg *config, rep *report) error {
	c, err := caseFor(cfg.extractN)
	if err != nil {
		return err
	}
	kernel := kernelMatrix(c.Layout)
	arts, err := prepareArtifacts(ctx, cfg, rep, c, kernel, core.LowRank)
	if err != nil {
		return err
	}
	tr, err := newTraffic(cfg, filepath.Join(cfg.runDir, "direct"), arts)
	if err != nil {
		return err
	}
	return withFleet(ctx, cfg, rep, 1, tr, func(f *fleet) error {
		main, err := measureServing(ctx, cfg, rep, f, &load{url: f.replicas[0].url, raw: true, tr: tr}, f.replicas[0])
		if err != nil || cfg.tracer == nil {
			return err
		}
		if err := probeLayers(cfg, rep, c, kernel, arts[0]); err != nil {
			return err
		}
		return probeServing(ctx, cfg, rep, tr, true, main)
	})
}

func runFleetSwap(ctx context.Context, cfg *config, rep *report) error {
	c, err := caseFor(cfg.fleetN)
	if err != nil {
		return err
	}
	kernel := kernelMatrix(c.Layout)
	arts, err := prepareArtifacts(ctx, cfg, rep, c, kernel, core.LowRank, core.Wavelet)
	if err != nil {
		return err
	}
	tr, err := newTraffic(cfg, filepath.Join(cfg.runDir, "fleet"), arts)
	if err != nil {
		return err
	}
	return withFleet(ctx, cfg, rep, 2, tr, func(f *fleet) error {
		l := &load{url: f.gate.url, raw: false, tr: tr, swap: newSwapper(f, tr)}
		main, err := measureServing(ctx, cfg, rep, f, l, nil)
		if err != nil || cfg.tracer == nil {
			return err
		}
		if err := probeLayers(cfg, rep, c, kernel, arts[0]); err != nil {
			return err
		}
		direct, err := directPhase(ctx, cfg, rep, f.replicas[0], tr, false)
		if err != nil {
			return err
		}
		directLayers(rep, direct)
		fleetLayers(rep, main.loadResult, median(direct.lat))
		return nil
	})
}

// withFleet starts the workload's daemons serveSetupRepeats times, setting
// setup_s to the median CPU time the daemons spent until every one was
// ready, runs body on the last set and stops it on every path.
func withFleet(ctx context.Context, cfg *config, rep *report, replicas int, tr *traffic, body func(*fleet) error) (err error) {
	var f *fleet
	defer func() {
		if f != nil {
			if serr := f.stop(); serr != nil {
				rep.phase("shutdown").record(serr)
			}
		}
	}()
	starts := 0
	err = timeSetup(rep, serveSetupRepeats, func() (time.Duration, error) {
		starts++
		var err error
		f, err = startFleet(ctx, cfg, replicas, tr, filepath.Join(tr.dir, fmt.Sprintf("start%d", starts)))
		if err != nil {
			return 0, err
		}
		return procCPU(f.pids()...)
	}, func() error {
		err := f.stop()
		f = nil
		return err
	})
	if err != nil {
		return err
	}
	return body(f)
}

// prepareArtifacts extracts the models a serving workload serves, one per
// method, against the dense kernel on c's layout. Like an extraction
// workload's timed phase, it repeats the op (at least prepareOps times and
// for prepareFor), checks every op and sets the extraction's end-to-end
// metrics and its layer split. None of it is part of the serving workload's
// timed phase.
func prepareArtifacts(ctx context.Context, cfg *config, rep *report, c experiments.Case, kernel *la.Dense, methods ...core.Method) ([][]byte, error) {
	ops, err := runOps(ctx, cfg, rep, kernelSpec(cfg, c, kernel, methods...), "prepare", prepareOps, prepareFor)
	if err != nil {
		return nil, err
	}
	return encodeModels(ops.first)
}

// version is one model artifact a fleet serves, with the answers an
// in-process engine gives for each vector of the traffic's pool.
type version struct {
	artifact []byte
	fp       string      // content fingerprint, computed in-process
	want     [][]float64 // answer per pool vector
}

// traffic is the request side of a serving workload: the seeded vector
// pool, its request bodies in both codecs, the order clients visit it in,
// and the versions that may answer. dir holds the first version as m.scm
// (alias "m") and the daemon logs.
type traffic struct {
	dir       string
	versions  []*version
	raw, json [][]byte
	order     []int
}

func newTraffic(cfg *config, dir string, artifacts [][]byte) (*traffic, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, alias+".scm"), artifacts[0], 0o644); err != nil {
		return nil, err
	}
	tr := &traffic{dir: dir}
	var engines []*model.Engine
	for _, a := range artifacts {
		m, err := model.Decode(a)
		if err != nil {
			return nil, err
		}
		engines = append(engines, model.NewEngine(m))
		tr.versions = append(tr.versions, &version{artifact: a, fp: fmt.Sprintf("%016x", model.FingerprintOf(m, extractWorkers))})
	}
	n := engines[0].N()
	rng := newRNG(cfg.seed, streamVectors)
	for k := 0; k < poolSize; k++ {
		x := randomVector(rng, n)
		js, err := json.Marshal(struct {
			Model string    `json:"model"`
			X     []float64 `json:"x"`
		}{alias, x})
		if err != nil {
			return nil, err
		}
		tr.raw = append(tr.raw, serve.EncodeRawVector(x))
		tr.json = append(tr.json, js)
		for i, e := range engines {
			if e.N() != n {
				return nil, fmt.Errorf("version %d has %d contacts, want %d", i, e.N(), n)
			}
			y := make([]float64, n)
			e.ApplyInto(y, x)
			tr.versions[i].want = append(tr.versions[i].want, y)
		}
	}
	tr.order = rng.Perm(poolSize)
	return tr, nil
}

// wants returns every version's answer for pool vector k.
func (tr *traffic) wants(k int) [][]float64 {
	out := make([][]float64, len(tr.versions))
	for i, v := range tr.versions {
		out[i] = v.want[k]
	}
	return out
}

type fleet struct {
	replicas []*daemon
	gate     *daemon
}

// startFleet starts replicas subserve daemons with their logs in dir and
// returns once every /readyz answers 200 with every version loaded. Every
// replica runs with its default flags, serving the first version as alias
// "m". More than one replica makes a fleet: each replica also gets -admin
// and loads the other versions through POST /admin/models, so the alias can
// be swapped between them, and a subgate fronts them. The replicas must
// report the fingerprints computed in-process for each version.
func startFleet(ctx context.Context, cfg *config, replicas int, tr *traffic, dir string) (f *fleet, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f = &fleet{}
	defer func() {
		if err != nil {
			err = errors.Join(err, f.stop())
			f = nil
		}
	}()
	gated := replicas > 1
	for i := 0; i < replicas; i++ {
		args := []string{"-addr", "127.0.0.1:0", "-model", filepath.Join(tr.dir, alias+".scm")}
		if gated {
			args = append(args, "-admin")
		}
		d, err := startDaemon(filepath.Join(cfg.binDir, "subserve"), filepath.Join(dir, fmt.Sprintf("subserve-%d.log", i)), args...)
		if err != nil {
			return f, err
		}
		f.replicas = append(f.replicas, d)
	}
	for _, d := range f.replicas {
		if err := d.waitReady(ctx); err != nil {
			return f, err
		}
		if err := checkServed(ctx, d, tr.versions[0].fp); err != nil {
			return f, err
		}
		if !gated {
			continue
		}
		for _, v := range tr.versions[1:] {
			if err := loadVersion(ctx, d, v); err != nil {
				return f, err
			}
		}
	}
	if !gated {
		return f, nil
	}
	args := []string{"-addr", "127.0.0.1:0"}
	for _, d := range f.replicas {
		args = append(args, "-backend", alias+"="+strings.TrimPrefix(d.url, "http://"))
	}
	if f.gate, err = startDaemon(filepath.Join(cfg.binDir, "subgate"), filepath.Join(dir, "subgate.log"), args...); err != nil {
		return f, err
	}
	return f, f.gate.waitReady(ctx)
}

// checkServed reads the replica's /models and fails unless it serves
// exactly alias "m" with fingerprint fp.
func checkServed(ctx context.Context, d *daemon, fp string) error {
	code, body, err := httpDo(ctx, controlClient, http.MethodGet, d.url+"/models", "", nil)
	if err != nil {
		return err
	}
	var rows []struct {
		Name        string `json:"name"`
		Fingerprint string `json:"fingerprint"`
	}
	if code != http.StatusOK || json.Unmarshal(body, &rows) != nil {
		return fmt.Errorf("%s /models: status %d: %s", d.url, code, bytes.TrimSpace(body))
	}
	if len(rows) != 1 || rows[0].Name != alias || rows[0].Fingerprint != fp {
		return fmt.Errorf("%s serves %+v, want alias %q with fingerprint %s", d.url, rows, alias, fp)
	}
	return nil
}

// loadVersion posts an artifact to a replica's content store and checks
// the fingerprint it is stored under.
func loadVersion(ctx context.Context, d *daemon, v *version) error {
	code, body, err := httpDo(ctx, controlClient, http.MethodPost, d.url+"/admin/models", "application/octet-stream", v.artifact)
	if err != nil {
		return err
	}
	var out struct {
		Fingerprint string `json:"fingerprint"`
	}
	if code != http.StatusOK || json.Unmarshal(body, &out) != nil || out.Fingerprint != v.fp {
		return fmt.Errorf("%s POST /admin/models: status %d: %s (want fingerprint %s)", d.url, code, bytes.TrimSpace(body), v.fp)
	}
	return nil
}

// daemons lists the fleet's started daemons, the gateway first.
func (f *fleet) daemons() []*daemon {
	ds := f.replicas
	if f.gate != nil {
		ds = append([]*daemon{f.gate}, ds...)
	}
	return ds
}

// stop stops every daemon, the gateway first, and joins their errors.
func (f *fleet) stop() error {
	var errs []error
	for _, d := range f.daemons() {
		errs = append(errs, d.stop())
	}
	return errors.Join(errs...)
}

func (f *fleet) alive() error {
	var errs []error
	for _, d := range f.daemons() {
		errs = append(errs, d.alive())
	}
	return errors.Join(errs...)
}

func (f *fleet) pids() []int {
	var pids []int
	for _, d := range f.daemons() {
		pids = append(pids, d.cmd.Process.Pid)
	}
	return pids
}

// phaseResult is a measured load phase with the CPU time f's daemons spent
// during it and what the scraped replica's histograms recorded (nil when
// none was scraped).
type phaseResult struct {
	loadResult
	cpu     time.Duration
	scraped map[seriesKey]histStat
}

// measuredPhase runs l for dur, counted in ph, scraping scrapeFrom's
// /metrics before and after when it is given. A phase that ran short of
// 95% of dur, in which no apply succeeded or during which a daemon exited
// counts as a failure.
func measuredPhase(ctx context.Context, cfg *config, f *fleet, l *load, dur time.Duration, ph *phase, scrapeFrom *daemon) (phaseResult, error) {
	var before map[seriesKey]histStat
	if scrapeFrom != nil {
		var err error
		if before, err = scrape(ctx, scrapeFrom); err != nil {
			return phaseResult{}, err
		}
	}
	cpu0, err := procCPU(f.pids()...)
	if err != nil {
		return phaseResult{}, err
	}
	res := phaseResult{loadResult: runLoad(ctx, cfg, l, dur, ph)}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	if res.wall < dur*95/100 {
		ph.record(fmt.Errorf("phase ran %v of %v", res.wall, dur))
	}
	if err := f.alive(); err != nil {
		ph.record(err)
		return res, err
	}
	if len(res.lat) == 0 {
		return res, fmt.Errorf("%s: no apply succeeded", ph.Name)
	}
	cpu1, err := procCPU(f.pids()...)
	if err != nil {
		return res, err
	}
	res.cpu = cpu1 - cpu0
	if scrapeFrom != nil {
		after, err := scrape(ctx, scrapeFrom)
		if err != nil {
			return res, err
		}
		res.scraped = map[seriesKey]histStat{}
		for k, h := range after {
			res.scraped[k] = histStat{h.sum - before[k].sum, h.count - before[k].count}
		}
	}
	return res, nil
}

// measureServing is the measured part of a serving workload: a warm-up,
// then the timed phase, from which it sets the end-to-end metrics.
func measureServing(ctx context.Context, cfg *config, rep *report, f *fleet, l *load, scrapeFrom *daemon) (phaseResult, error) {
	runLoad(ctx, cfg, l, cfg.warmup, rep.phase("warmup"))
	rss := sampleRSS(f.pids()...)
	defer rss.stop()
	res, err := measuredPhase(ctx, cfg, f, l, cfg.timed, rep.phase("timed"), scrapeFrom)
	if err != nil {
		return res, err
	}
	rssMean, rssPeak, err := rss.stop()
	if err != nil {
		return res, err
	}
	setApplyMetrics(rep, res)
	rep.set("rss_mb", rssMean)
	rep.set("process.peak_rss_mb", rssPeak)
	rep.set("client.p50_ms", median(res.lat))
	rep.set("client.p90_ms", quantile(res.lat, 0.9))
	rep.set("client.p99_ms", quantile(res.lat, 0.99))
	rep.set("client.ops_per_s", float64(len(res.lat))/res.wall.Seconds())
	return res, nil
}

// setApplyMetrics sets what a user sees of the applies of a measured phase:
// their lower decile, and the daemons' CPU time per apply, swaps included.
func setApplyMetrics(rep *report, res phaseResult) {
	rep.set("apply_p10_ms", quantile(res.lat, 0.1))
	rep.set("serve.cpu_us", 1e6*res.cpu.Seconds()/float64(len(res.lat)))
}

// directPhase sends the traffic straight to one replica for cfg.direct after
// a warm-up of a quarter of that, scraping the replica's /metrics around it.
func directPhase(ctx context.Context, cfg *config, rep *report, d *daemon, tr *traffic, raw bool) (phaseResult, error) {
	f := &fleet{replicas: []*daemon{d}}
	l := &load{url: d.url, raw: raw, tr: tr}
	runLoad(ctx, cfg, l, cfg.direct/4, rep.phase("direct-warmup"))
	return measuredPhase(ctx, cfg, f, l, cfg.direct, rep.phase("direct"), d)
}

// probeServing measures the serving layers of a traced run on tr with a
// fleet of two admin replicas behind subgate: it takes the per-layer
// metrics of the workload's direct phase straight to one replica, then runs
// a fleet phase through the gateway with swaps.
func probeServing(ctx context.Context, cfg *config, rep *report, tr *traffic, raw bool, direct phaseResult) error {
	f, err := startFleet(ctx, cfg, 2, tr, filepath.Join(tr.dir, "probe"))
	if err != nil {
		return fmt.Errorf("serving probe: %w", err)
	}
	defer func() {
		if err := f.stop(); err != nil {
			rep.phase("shutdown").record(err)
		}
	}()
	directLayers(rep, direct)
	l := &load{url: f.gate.url, raw: raw, tr: tr, swap: newSwapper(f, tr)}
	runLoad(ctx, cfg, l, cfg.direct/4, rep.phase("probe-fleet-warmup"))
	res, err := measuredPhase(ctx, cfg, f, l, cfg.direct, rep.phase("probe-fleet"), nil)
	if err != nil {
		return err
	}
	fleetLayers(rep, res.loadResult, median(direct.lat))
	return nil
}

// directLayers sets the per-layer metrics of a phase sent straight to one
// replica: its p50, the part of it outside the kernel, and the means of the
// replica's own histograms over the phase. Means are exact, where a
// quantile of the exported buckets would only be interpolated.
func directLayers(rep *report, d phaseResult) {
	p50 := median(d.lat)
	rep.set("serve.apply_p50_ms", p50)
	if us, ok := rep.metrics["model.apply_us"]; ok {
		rep.set("serve.self_p50_ms", p50-us/1e3)
	}
	for _, s := range []struct {
		metric, series, labels string
		scale                  float64
	}{
		{"serve.handler_mean_us", "subserve_http_request_seconds", `endpoint="apply"`, 1e6},
		{"batcher.wait_mean_us", "subserve_batch_window_wait_seconds", "", 1e6},
		{"batcher.size_mean", "subserve_batch_size", "", 1},
		{"kernel.mean_us", "subcouple_engine_apply_seconds", "", 1e6},
	} {
		var sum histStat
		for k, h := range d.scraped {
			if k.name == s.series && strings.Contains(k.labels, s.labels) {
				sum.sum += h.sum
				sum.count += h.count
			}
		}
		if sum.count == 0 {
			rep.note("/metrics has no %s samples over the direct phase; %s left out", s.series, s.metric)
			continue
		}
		rep.set(s.metric, s.scale*sum.sum/float64(sum.count))
	}
}

// fleetLayers sets the per-layer metrics of a phase through the gateway
// with swaps, given the p50 of the matching direct phase.
func fleetLayers(rep *report, fl loadResult, directP50 float64) {
	rep.set("gateway.self_p50_ms", median(fl.lat)-directP50)
	rep.set("registry.drain_p50_ms", median(fl.drains))
	rep.set("admin.swaps", float64(len(fl.swaps)))
	rep.set("admin.swap_p50_ms", median(fl.swaps))
}

// seriesKey names one histogram series: its family and its labels, le
// excluded.
type seriesKey struct{ name, labels string }

// histStat is the sum and count of one histogram series.
type histStat struct {
	sum   float64
	count int64
}

// scrape reads a daemon's /metrics and returns every histogram series.
func scrape(ctx context.Context, d *daemon) (map[seriesKey]histStat, error) {
	code, body, err := httpDo(ctx, controlClient, http.MethodGet, d.url+"/metrics", "", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics: status %d", d.url, code)
	}
	return parseHistograms(body)
}

// parseHistograms reads the _sum and _count samples of the histogram
// families declared in Prometheus text exposition format.
func parseHistograms(text []byte) (map[seriesKey]histStat, error) {
	hists := map[string]bool{}
	out := map[seriesKey]histStat{}
	for _, line := range strings.Split(string(text), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" && f[3] == "histogram" {
			hists[f[2]] = true
		}
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics: bad line %q", line)
		}
		name, labels, _ := strings.Cut(line[:sp], "{")
		labels = strings.TrimSuffix(labels, "}")
		base, isSum := strings.CutSuffix(name, "_sum")
		if !isSum {
			var isCount bool
			if base, isCount = strings.CutSuffix(name, "_count"); !isCount {
				continue
			}
		}
		if !hists[base] {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q", line)
		}
		k := seriesKey{base, labels}
		h := out[k]
		if isSum {
			h.sum = v
		} else {
			h.count = int64(v)
		}
		out[k] = h
	}
	return out, nil
}
