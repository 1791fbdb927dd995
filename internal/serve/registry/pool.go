package registry

import (
	"context"
	"sync/atomic"
	"time"

	"subcouple/internal/model"
	"subcouple/internal/obs"
	"subcouple/internal/par"
)

// Pool is a fixed-size checkout pool of model.Engine instances over one
// shared *model.Model. Get blocks while all engines are busy, so the pool
// size bounds how many applies run concurrently on the model.
type Pool struct {
	m       *model.Model
	engines chan *model.Engine
	size    int
	rec     *obs.Recorder

	// inUse tracks checked-out engines for the saturation gauge and the
	// queue-depth-aware /readyz; it is maintained whether or not a metrics
	// registry is attached.
	inUse atomic.Int64

	// Live metrics handles (nil without SetMetrics; all nil-safe).
	mInUse    *obs.Gauge
	mWait     *obs.Histogram
	mTimeouts *obs.Counter
}

// NewPool builds size engines over m (size <= 0 selects runtime.NumCPU()).
// The recorder and tracer are attached to every engine and may be nil.
func NewPool(m *model.Model, size int, rec *obs.Recorder, tr *obs.Tracer) *Pool {
	size = par.Workers(size)
	p := &Pool{m: m, engines: make(chan *model.Engine, size), size: size, rec: rec}
	for i := 0; i < size; i++ {
		e := model.NewEngine(m)
		e.SetObs(rec, tr)
		p.engines <- e
	}
	return p
}

// Model returns the pool's shared model.
func (p *Pool) Model() *model.Model { return p.m }

// Size returns the pool's engine count (the concurrency limit).
func (p *Pool) Size() int { return p.size }

// InUse returns how many engines are currently checked out — the pool
// saturation /readyz reports.
func (p *Pool) InUse() int { return int(p.inUse.Load()) }

// SetMetrics attaches live metrics handles for the pool labeled with the
// registered model name, and propagates the registry to every engine (its
// apply-duration histograms). Call before serving starts; a nil
// registry leaves everything a no-op.
func (p *Pool) SetMetrics(ms *obs.Metrics, name string) {
	p.mInUse = ms.Gauge(MetricPoolInUse, "engines currently checked out of the pool", "model", name)
	p.mWait = ms.Histogram(MetricPoolWaitSeconds, "contended engine-checkout wait (uncontended checkouts are not sampled)", "model", name)
	p.mTimeouts = ms.Counter(MetricPoolTimeouts, "checkouts abandoned because the request context expired first", "model", name)
	for i := 0; i < p.size; i++ {
		e := <-p.engines
		e.SetMetrics(ms)
		p.engines <- e
	}
}

// checkout records a successful Get.
func (p *Pool) checkout() {
	p.mInUse.Set(p.inUse.Add(1))
}

// Get checks an engine out, blocking until one is free or ctx is done. The
// caller must hand the engine back with Put on every path.
func (p *Pool) Get(ctx context.Context) (*model.Engine, error) {
	select {
	case e := <-p.engines:
		p.checkout()
		return e, nil
	default:
	}
	// All engines busy: record the wait so saturation shows up in the
	// run report rather than only as client latency.
	start := time.Now()
	select {
	case e := <-p.engines:
		p.rec.Observe("serve/pool_wait_us", float64(time.Since(start).Microseconds()))
		p.mWait.Observe(time.Since(start).Seconds())
		p.checkout()
		return e, nil
	case <-ctx.Done():
		p.rec.Add("serve/pool_timeouts", 1)
		p.mTimeouts.Inc()
		return nil, ctx.Err()
	}
}

// Put returns an engine to the pool. It must have come from Get on the same
// pool, exactly once.
func (p *Pool) Put(e *model.Engine) {
	select {
	case p.engines <- e:
		p.mInUse.Set(p.inUse.Add(-1))
	default:
		panic("serve: Pool.Put without a matching Get")
	}
}
