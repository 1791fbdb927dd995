// Package serve is the HTTP face of the model registry. The package is
// layered: internal/serve/registry owns model lifecycle (content-addressed
// versions, alias activations, hot swap with drain) and the serving
// machinery (engine pools, micro-batchers); this package owns the HTTP
// surface — routing, codecs, per-endpoint instrumentation, readiness — and
// resolves every request through an immutable registry snapshot.
package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"subcouple/internal/model"
	"subcouple/internal/obs"
	"subcouple/internal/serve/registry"
)

// Options configures a Server. The zero value is usable: NumCPU engines per
// model, registry.DefaultMaxBatch, no per-request timeout, a private metrics
// registry, no admin surface.
type Options struct {
	// PoolSize is the number of engines (the concurrency limit) per model;
	// <= 0 selects runtime.NumCPU().
	PoolSize int
	// MaxBatch bounds the columns fused into one flush (<= 0 selects
	// registry.DefaultMaxBatch).
	MaxBatch int
	// Workers is the engine worker count for batched applies (0 = all CPUs);
	// responses are bitwise identical for any value.
	Workers int
	// Timeout bounds each request's admission + pool wait (0 = none).
	Timeout time.Duration
	// Tracer receives serving spans; it may be nil.
	Tracer *obs.Tracer
	// Metrics is the live registry behind GET /metrics, the run report's
	// serving block and every serving counter, gauge and histogram; nil
	// selects a private one.
	Metrics *obs.Metrics
	// ShedThreshold makes /readyz queue-depth-aware: when > 0 and the total
	// batcher queue depth (admitted-but-incomplete applies across all
	// models) exceeds it, /readyz reports 503 so load balancers route
	// around the saturated daemon. 0 disables shedding. Applies themselves
	// are never refused — only readiness sheds.
	ShedThreshold int
	// Admin routes the loopback-only lifecycle surface (POST /admin/models,
	// POST /admin/swap, DELETE /admin/models/{fp}). Off by default: a
	// daemon that was not asked for hot reload exposes no mutating
	// endpoints at all.
	Admin bool
}

// ErrServerClosed is returned by AddModel/LoadFile (and every other
// registry mutation) after Close: the daemon is draining and accepts no new
// models.
var ErrServerClosed = registry.ErrRegistryClosed

// Server is the HTTP layer over the model registry. Endpoints:
//
//	GET    /healthz              process liveness (always 200 while up)
//	GET    /readyz               200 once models are loaded, 503 while draining
//	GET    /models               JSON metadata for every aliased model
//	POST   /apply                G·x; JSON or raw float64-LE body (see handleApply)
//	GET    /column               one operator column (?model=&j=&thresholded=&format=)
//	GET    /fingerprint          deterministic probe-apply hash through the live pool
//	POST   /admin/models         load an artifact into the content store (Options.Admin)
//	POST   /admin/swap           point an alias at a loaded version (Options.Admin)
//	DELETE /admin/models/{fp}    unload an unaliased version (Options.Admin)
//
// The server owns no model state: every handler resolves models through an
// immutable registry snapshot (one atomic pointer load, no lock, no
// allocation), and all lifecycle — load, swap, unload, drain — lives in
// *registry.Registry.
type Server struct {
	opt Options
	reg *registry.Registry

	// endpoints is the per-endpoint HTTP telemetry; its handles are
	// resolved at Handler() time, so repeated Handler() calls reuse the
	// same series.
	endpoints *HTTPMetrics

	ready    atomic.Bool
	draining atomic.Bool
}

// New returns a server over an empty registry.
func New(opt Options) *Server {
	if opt.Metrics == nil {
		opt.Metrics = obs.NewMetrics()
	}
	reg := registry.New(registry.Options{
		PoolSize: opt.PoolSize,
		MaxBatch: opt.MaxBatch,
		Workers:  opt.Workers,
		Tracer:   opt.Tracer,
		Metrics:  opt.Metrics,
	})
	return &Server{opt: opt, reg: reg, endpoints: NewHTTPMetrics(opt.Metrics,
		MetricHTTPRequests, "requests by endpoint and status class",
		MetricLatencySeconds, "request latency by endpoint, handler entry to last byte")}
}

// Registry exposes the lifecycle layer (cmd/subserve's watch loop drives
// hot reload through it directly).
func (s *Server) Registry() *registry.Registry { return s.reg }

// AddModel loads m into the content store and points alias name at it,
// building its engine pool and batcher. The model must already be validated
// (model.Decode guarantees it). After Close it returns ErrServerClosed.
func (s *Server) AddModel(name string, m *model.Model) error {
	if name == "" {
		return fmt.Errorf("serve: empty model name")
	}
	if s.reg.Snapshot().Lookup(name) != nil {
		return fmt.Errorf("serve: duplicate model name %q", name)
	}
	fp, _, err := s.reg.Load(m)
	if err != nil {
		return fmt.Errorf("serve: model %q: %w", name, err)
	}
	if _, err := s.reg.Swap(name, fp); err != nil {
		return fmt.Errorf("serve: model %q: %w", name, err)
	}
	return nil
}

// LoadFile decodes one .scm artifact and registers it under its base file
// name (sans extension). It returns the registered name.
func (s *Server) LoadFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", fmt.Errorf("serve: %w", err)
	}
	defer f.Close()
	m, err := model.Read(f)
	if err != nil {
		return "", fmt.Errorf("serve: load %s: %w", path, err)
	}
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	if err := s.AddModel(name, m); err != nil {
		return "", err
	}
	return name, nil
}

// Names returns the aliased model names in sorted order.
func (s *Server) Names() []string {
	return append([]string(nil), s.reg.Snapshot().Names()...)
}

// Model returns the model an alias currently serves, or nil.
func (s *Server) Model(name string) *model.Model {
	if act := s.reg.Snapshot().Lookup(name); act != nil {
		return act.Model()
	}
	return nil
}

// Fingerprint returns the content fingerprint an alias currently serves.
func (s *Server) Fingerprint(name string) (uint64, bool) {
	act := s.reg.Snapshot().Lookup(name)
	if act == nil {
		return 0, false
	}
	return act.Fingerprint(), true
}

// SetReady flips /readyz; cmd/subserve arms it after the listener is bound.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Close begins the drain: /readyz starts failing, new applies and registry
// mutations are refused (mutations with ErrServerClosed), and Close blocks
// until every in-flight batch has completed.
func (s *Server) Close() {
	s.draining.Store(true)
	s.reg.Close()
}

// QueueDepth returns the total admitted-but-incomplete applies across all
// alias batchers — the signal behind shedding readiness.
func (s *Server) QueueDepth() int { return s.reg.Snapshot().QueueDepth() }

// PoolInUse returns the total checked-out engines across all alias pools.
func (s *Server) PoolInUse() int { return s.reg.Snapshot().PoolInUse() }

// ServingStats snapshots the live registry into the run report's "serving"
// block: final queue-depth / pool readings, per-endpoint status-class counts
// and latency quantiles, plus the model-registry lifecycle counters.
func (s *Server) ServingStats() *obs.ServingStats {
	return &obs.ServingStats{
		QueueDepth: s.QueueDepth(),
		PoolInUse:  s.PoolInUse(),
		Endpoints:  s.endpoints.Stats(),
		Registry:   s.reg.Stats(),
	}
}
