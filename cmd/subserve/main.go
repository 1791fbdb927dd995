// Command subserve is the model-serving daemon: it loads one or more .scm
// model artifacts (written by `subx -save`) into an internal/serve registry
// and serves G·x applies over HTTP until SIGTERM/SIGINT, then drains
// in-flight batches and exits cleanly. Extraction spends O(log n) substrate
// solves once, offline; subserve amortizes that cost across any number of
// cheap applies — zero substrate solves ever happen here.
//
// Endpoints: /healthz, /readyz (JSON, queue-depth-aware: 503 once total
// queue depth crosses -shedthreshold), /models, /apply (JSON or raw
// float64-LE), /column, /fingerprint, /metrics (Prometheus text exposition
// of the live registry), plus /debug/vars (a live expvar snapshot of the
// same registry) and /debug/pprof. With -admin, the loopback-only
// lifecycle API (POST /admin/models, POST /admin/swap, DELETE
// /admin/models/{fp}) enables hot load/swap/unload by content fingerprint;
// -watch dir polls a directory and hot-loads new .scm artifacts
// automatically.
//
// Usage examples:
//
//	subx -layout regular -n 16 -save m.scm
//	subserve -model m.scm -addr :8080
//	curl -s localhost:8080/models
//	curl -s -X POST -H 'Content-Type: application/json' \
//	     -d '{"x":[...n floats...]}' localhost:8080/apply
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"subcouple/internal/obs"
	"subcouple/internal/par"
	"subcouple/internal/serve"
	"subcouple/internal/serve/registry"
)

func main() {
	log.SetFlags(log.Ltime)
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// onListen is a test seam: when set, it receives the bound address before
// the daemon starts accepting.
var onListen func(net.Addr)

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return fmt.Sprint([]string(*m)) }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// run is the whole daemon behind a testable seam: flags in, errors returned
// instead of exiting, nil after a graceful signal-initiated drain.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("subserve", flag.ContinueOnError)
	var modelPaths multiFlag
	fs.Var(&modelPaths, "model", "model artifact (.scm, from subx -save) to serve; repeatable (positional args work too)")
	var (
		addr     = fs.String("addr", ":8080", "HTTP listen address")
		poolSize = fs.Int("pool", 0, "engines per model = per-model concurrency limit (0 = all CPUs)")
		maxBatch = fs.Int("maxbatch", registry.DefaultMaxBatch, "max apply requests fused into one batched engine call")
		workers  = fs.Int("workers", 0, "engine workers per batched apply (0 = all CPUs); responses are identical for any value")
		timeout  = fs.Duration("timeout", 10*time.Second, "per-request admission/pool-wait timeout (0 = none)")
		drainFor = fs.Duration("drain", 30*time.Second, "graceful-shutdown bound for draining in-flight requests")
		report   = fs.String("report", "", "write a JSON run report (request counts, latency quantiles, registry lifecycle) here on shutdown")
		shedAt   = fs.Int("shedthreshold", 0, "return 503 from /readyz while total batcher queue depth exceeds this (0 = never shed)")
		adminOn  = fs.Bool("admin", false, "route the loopback-only lifecycle API: POST /admin/models, POST /admin/swap, DELETE /admin/models/{fp}")
		watchDir = fs.String("watch", "", "poll this directory for .scm artifacts and hot-load them by content hash (alias = base file name)")
		watchIvl = fs.Duration("watchinterval", 2*time.Second, "poll interval for -watch")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	modelPaths = append(modelPaths, fs.Args()...)
	if len(modelPaths) == 0 && *watchDir == "" {
		return fmt.Errorf("subserve: no model artifacts (pass -model m.scm, or -watch dir)")
	}
	if *watchIvl <= 0 {
		return fmt.Errorf("subserve: -watchinterval must be positive")
	}

	ms := obs.NewMetrics()
	publishExpvars(ms)
	srv := serve.New(serve.Options{
		PoolSize:      *poolSize,
		MaxBatch:      *maxBatch,
		Workers:       *workers,
		Timeout:       *timeout,
		Metrics:       ms,
		ShedThreshold: *shedAt,
		Admin:         *adminOn,
	})
	for _, path := range modelPaths {
		name, err := srv.LoadFile(path)
		if err != nil {
			return err
		}
		m := srv.Model(name)
		fp, _ := srv.Fingerprint(name)
		log.Printf("model %s: %s, %d contacts, extracted with %d solves; apply fingerprint %016x",
			name, m.Method, m.N, m.Solves, fp)
	}

	// With -watch, scan the directory once synchronously so the daemon
	// starts with whatever artifacts are already there; the polling loop
	// (started after the listener binds) picks up later arrivals.
	var watcher *modelWatcher
	if *watchDir != "" {
		watcher = newModelWatcher(srv, *watchDir)
		watcher.scan()
	}
	if len(srv.Names()) == 0 && *watchDir != "" {
		log.Printf("watch: no artifacts in %s yet; serving empty until one appears", *watchDir)
	}

	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	// Bind synchronously so a bad or busy address fails startup with a real
	// error (same discipline as the subx -pprof fix); only the accept loop
	// runs in the background.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("subserve: %w", err)
	}
	log.Printf("serving %d model(s) on http://%s (pool %d, maxbatch %d)",
		len(modelPaths), ln.Addr(), par.Workers(*poolSize), *maxBatch)
	if onListen != nil {
		onListen(ln.Addr())
	}

	hs := &http.Server{Handler: mux}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv.SetReady(true)
	if watcher != nil {
		go watcher.poll(ctx, *watchIvl)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	select {
	case err := <-errCh:
		return fmt.Errorf("subserve: %w", err)
	case <-ctx.Done():
	}
	stop() // a second signal now kills immediately instead of waiting out the drain

	log.Printf("signal received; draining in-flight requests (bound %v)", *drainFor)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil {
		log.Printf("drain: %v (continuing shutdown)", err)
	}
	srv.Close() // flushes and waits out every admitted batch

	if *report != "" {
		if err := writeReport(*report, srv, modelPaths, *addr); err != nil {
			return err
		}
		log.Printf("run report written to %s", *report)
	}
	log.Printf("drained; clean shutdown")
	return nil
}

// writeReport dumps the serving telemetry as a standard run report. The
// report is written after the drain, so the serving block (request counts
// and latency quantiles per endpoint, registry lifecycle) carries final
// totals with the queue-depth and pool readings back at zero. The obs and
// numerics sections stay empty: the daemon records into its metrics
// registry, not a Recorder, and runs no solver.
func writeReport(path string, srv *serve.Server, models []string, addr string) error {
	rep := &obs.RunReport{
		Schema: obs.ReportSchema,
		Tool:   "subserve",
		Config: map[string]any{
			"addr":    addr,
			"models":  []string(models),
			"num_cpu": runtime.NumCPU(),
		},
		Results:  map[string]any{},
		Numerics: &obs.Numerics{},
		Serving:  srv.ServingStats(),
	}
	data, err := rep.MarshalIndent()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Live expvar publication: the metrics registry is mirrored under
// "subserve_metrics" so /debug/vars exposes the same series /metrics
// scrapes. One-time registration with an atomically swapped source, same
// pattern as subx (run() is re-entered by tests).
var (
	expvarOnce sync.Once
	expvarMet  atomic.Pointer[obs.Metrics]
)

func publishExpvars(ms *obs.Metrics) {
	expvarMet.Store(ms)
	expvarOnce.Do(func() {
		expvar.Publish("subserve_metrics", expvar.Func(func() any { return expvarMet.Load().Snapshot() }))
	})
}
