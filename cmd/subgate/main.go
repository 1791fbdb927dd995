// Command subgate is the fleet gateway: one HTTP front door that shards
// /apply traffic across N subserve replicas. Extraction is the expensive,
// offline step; a served apply is microseconds — so production capacity is
// many cheap replicas of the same .scm artifact behind one address, and
// subgate is that address. It keeps a copy-on-write routing snapshot
// refreshed by a background health prober (shed-aware /readyz plus /models
// fingerprint polling, with per-replica exponential backoff), balances with
// power-of-two-choices on in-flight count, and fails a request over to the
// next ready replica on connect error or 503 — never after response bytes
// have reached the client.
//
// Endpoints: /healthz, /readyz (JSON, 200 only while every alias has a
// ready replica), /models (fleet-aggregated, flags fingerprint disagreement
// between replicas), /apply and /column (proxied, both codecs untouched),
// /metrics (Prometheus text), /debug/vars (the same registry as expvar).
//
// Usage examples:
//
//	subserve -model m.scm -addr :8391 &
//	subserve -model m.scm -addr :8392 &
//	subgate -addr :8390 -backend m=127.0.0.1:8391 -backend m=127.0.0.1:8392
//	curl -s -X POST -H 'Content-Type: application/json' \
//	     -d '{"x":[...n floats...]}' localhost:8390/apply
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
	"os"
	"os/signal"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"subcouple/internal/gateway"
	"subcouple/internal/obs"
)

func main() {
	log.SetFlags(log.Ltime)
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// onListen is a test seam: when set, it receives the bound address before
// the gateway starts accepting.
var onListen func(net.Addr)

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return fmt.Sprint([]string(*m)) }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// run is the whole gateway behind a testable seam: flags in, errors
// returned instead of exiting, nil after a graceful signal-initiated drain.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("subgate", flag.ContinueOnError)
	var backendFlags multiFlag
	fs.Var(&backendFlags, "backend", "replica enrollment alias=host:port; repeatable")
	var (
		addr       = fs.String("addr", ":8390", "HTTP listen address")
		backendsAt = fs.String("backends", "", "fleet map file: one alias=host:port per line, #-comments allowed (combines with -backend)")
		probeIvl   = fs.Duration("probeinterval", time.Second, "health-probe period for ready replicas; failing replicas back off exponentially from this")
		probeTmo   = fs.Duration("probetimeout", 2*time.Second, "timeout for one replica's /readyz + /models probe pair")
		backoffMax = fs.Duration("backoffmax", 30*time.Second, "cap on the exponential probe backoff for a failing replica")
		timeout    = fs.Duration("timeout", 30*time.Second, "end-to-end bound for one proxied request, failover attempts included (0 = none)")
		drainFor   = fs.Duration("drain", 30*time.Second, "graceful-shutdown bound for draining in-flight requests")
		report     = fs.String("report", "", "write a JSON run report (per-backend routing totals, endpoint latency quantiles) here on shutdown")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(fs.Args()) > 0 {
		return fmt.Errorf("subgate: unexpected arguments %v (backends are flags: -backend alias=host:port)", fs.Args())
	}

	var backends []gateway.Backend
	if *backendsAt != "" {
		bs, err := gateway.ParseBackendsFile(*backendsAt)
		if err != nil {
			return fmt.Errorf("subgate: %w", err)
		}
		backends = bs
	}
	for _, s := range backendFlags {
		b, err := gateway.ParseBackend(s)
		if err != nil {
			return fmt.Errorf("subgate: %w", err)
		}
		backends = append(backends, b)
	}
	if len(backends) == 0 {
		return fmt.Errorf("subgate: no backends (pass -backend alias=host:port, or -backends file)")
	}
	if *probeIvl <= 0 {
		return fmt.Errorf("subgate: -probeinterval must be positive")
	}

	ms := obs.NewMetrics()
	publishExpvars(ms)
	gw, err := gateway.New(backends, gateway.Options{
		ProbeInterval:   *probeIvl,
		ProbeTimeout:    *probeTmo,
		ProbeBackoffMax: *backoffMax,
		Timeout:         *timeout,
		Metrics:         ms,
	})
	if err != nil {
		return fmt.Errorf("subgate: %w", err)
	}

	mux := http.NewServeMux()
	mux.Handle("/", gw.Handler())
	mux.Handle("/debug/vars", expvar.Handler())

	// Bind synchronously so a bad or busy address fails startup with a real
	// error; only the accept loop runs in the background.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("subgate: %w", err)
	}

	// Probe the whole fleet once before accepting so the gateway comes up
	// with a populated routing table instead of 503ing its first
	// -probeinterval of traffic, then hand off to the background prober.
	gw.ProbeOnce()
	gw.Start()
	ready := 0
	for _, b := range gw.Stats().Backends {
		if b.Ready {
			ready++
		}
	}
	log.Printf("fronting %d replica(s) across %d alias(es) on http://%s (%d ready, probe every %v)",
		len(backends), len(gw.Aliases()), ln.Addr(), ready, *probeIvl)
	if onListen != nil {
		onListen(ln.Addr())
	}

	hs := &http.Server{Handler: mux}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	select {
	case err := <-errCh:
		return fmt.Errorf("subgate: %w", err)
	case <-ctx.Done():
	}
	stop() // a second signal now kills immediately instead of waiting out the drain

	log.Printf("signal received; draining in-flight requests (bound %v)", *drainFor)
	gw.Close() // /readyz fails and new applies are refused from here on
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil {
		log.Printf("drain: %v (continuing shutdown)", err)
	}

	if *report != "" {
		if err := writeReport(*report, gw, ms, *addr); err != nil {
			return err
		}
		log.Printf("run report written to %s", *report)
	}
	log.Printf("drained; clean shutdown")
	return nil
}

// writeReport dumps the routing telemetry as a standard run report, written
// after the drain so the per-backend totals are final. The obs and numerics
// sections come from the registry's Report like a batch tool's; they are
// empty, because the gateway runs no solver and records no batch events.
func writeReport(path string, gw *gateway.Gateway, ms *obs.Metrics, addr string) error {
	snap, numerics := ms.Report()
	rep := &obs.RunReport{
		Schema: obs.ReportSchema,
		Tool:   "subgate",
		Config: map[string]any{
			"addr":    addr,
			"aliases": gw.Aliases(),
			"num_cpu": runtime.NumCPU(),
		},
		Results:  map[string]any{},
		Obs:      snap,
		Numerics: numerics,
		Gateway:  gw.Stats(),
	}
	data, err := rep.MarshalIndent()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Live expvar publication: the metrics registry is mirrored under
// "subgate_metrics", same pattern as subserve (run() is re-entered by
// tests).
var (
	expvarOnce sync.Once
	expvarMet  atomic.Pointer[obs.Metrics]
)

func publishExpvars(ms *obs.Metrics) {
	expvarMet.Store(ms)
	expvarOnce.Do(func() {
		expvar.Publish("subgate_metrics", expvar.Func(func() any { return expvarMet.Load().Snapshot() }))
	})
}
