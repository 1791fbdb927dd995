package registry

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"subcouple/internal/obs"
)

// ErrClosed is returned by Batcher.Apply after Close: the daemon is
// draining and accepts no new work.
var ErrClosed = errors.New("serve: batcher closed")

// ErrApplyPanic marks errors recovered from a panic inside the serving hot
// path (batcher flush backstop). The HTTP layer maps it to 500 — a server
// fault — where ordinary apply errors are caller problems (400) or
// retryable drains (503).
var ErrApplyPanic = errors.New("serve: apply panic")

// DefaultMaxBatch bounds how many requests one flush may coalesce when the
// Batcher is configured with maxBatch <= 0.
const DefaultMaxBatch = 32

// Batcher coalesces concurrent Apply requests on one model into single
// multi-RHS panel applies. The first request opens a batch; the collector
// goroutine keeps admitting requests until the coalescing window elapses or
// the batch is full, then packs the batch into one column-major n×k panel
// and flushes it through Engine.ApplyPanelInto on one engine checked out of
// the pool. Flushes run concurrently up to the pool size, so a long window
// never serializes the daemon.
//
// Coalescing is invisible in the response bytes: the panel kernels compute
// each column with exactly the single-RHS arithmetic (and are bitwise
// deterministic for any worker count), so a batched response is identical
// to the unbatched one. The window only trades a little latency for
// throughput.
type Batcher struct {
	pool     *Pool
	window   time.Duration
	maxBatch int
	workers  int
	rec      *obs.Recorder
	tr       *obs.Tracer

	reqs    chan *applyReq
	idle    chan struct{} // closed when the collector exits
	flights sync.WaitGroup

	// depth counts admitted-but-not-yet-completed requests (queued in the
	// window plus in-flight in a flush). It is the queue-depth signal behind
	// the shedding /readyz and is maintained with or without metrics.
	depth atomic.Int64

	// Live metrics handles (nil without SetMetrics; all nil-safe).
	mDepth   *obs.Gauge
	mBatch   *obs.Histogram
	mWait    *obs.Histogram
	mFlushes *obs.Counter

	mu     sync.RWMutex // guards closed and the send into reqs
	closed bool
}

// applyReq is one enqueued apply: x in, dst out, done fired on completion.
// enq stamps admission so the flush can observe how long coalescing held
// the request.
type applyReq struct {
	x, dst      []float64
	thresholded bool
	enq         time.Time
	done        chan error
}

// NewBatcher starts the collector for pool with the given coalescing window
// (0 flushes immediately, still fusing whatever is already queued), batch
// bound (<= 0 selects DefaultMaxBatch) and engine worker count.
func NewBatcher(pool *Pool, window time.Duration, maxBatch, workers int, rec *obs.Recorder, tr *obs.Tracer) *Batcher {
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	b := &Batcher{
		pool:     pool,
		window:   window,
		maxBatch: maxBatch,
		workers:  workers,
		rec:      rec,
		tr:       tr,
		reqs:     make(chan *applyReq, 2*maxBatch),
		idle:     make(chan struct{}),
	}
	go b.collect()
	return b
}

// SetMetrics attaches live metrics handles labeled with the registered
// model name. Call before serving starts; a nil registry leaves everything
// a no-op.
func (b *Batcher) SetMetrics(ms *obs.Metrics, name string) {
	b.mDepth = ms.Gauge(MetricQueueDepth, "applies admitted but not yet completed (window queue + in-flight flushes)", "model", name)
	b.mBatch = ms.HistogramBuckets(MetricBatchSize, "requests coalesced into one flush", BatchSizeBuckets, "model", name)
	b.mWait = ms.Histogram(MetricWindowWaitSeconds, "admission-to-flush wait per request (the latency cost of coalescing)", "model", name)
	b.mFlushes = ms.Counter(MetricBatchFlushes, "batches flushed through the engine pool", "model", name)
}

// QueueDepth returns the number of admitted-but-incomplete applies.
func (b *Batcher) QueueDepth() int { return int(b.depth.Load()) }

// Apply computes dst = G·x (Gwt·-based when thresholded) through a coalesced
// batch, blocking until the batch completes. ctx bounds only admission (the
// wait for queue space); once admitted a request always runs — graceful
// shutdown drains it. Dimensions are validated here so a mis-sized request
// can never poison a whole batch.
func (b *Batcher) Apply(ctx context.Context, dst, x []float64, thresholded bool) error {
	n := b.pool.Model().N
	if len(x) != n {
		return fmt.Errorf("serve: apply x has length %d, want %d", len(x), n)
	}
	if len(dst) != n {
		return fmt.Errorf("serve: apply dst has length %d, want %d", len(dst), n)
	}
	if thresholded && b.pool.Model().Gwt == nil {
		return fmt.Errorf("serve: model %q has no thresholded representation", b.pool.Model().Method)
	}
	req := &applyReq{x: x, dst: dst, thresholded: thresholded, enq: time.Now(), done: make(chan error, 1)}

	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return ErrClosed
	}
	select {
	case b.reqs <- req:
		// Admitted: the request now counts toward queue depth until its
		// flush completes — shutdown drains admitted work, so depth also
		// covers the drain window.
		b.mDepth.Set(b.depth.Add(1))
		b.mu.RUnlock()
	case <-ctx.Done():
		b.mu.RUnlock()
		return ctx.Err()
	}
	return <-req.done
}

// Close stops admission and drains: it waits for the collector to exit and
// for every in-flight batch to complete. Safe to call more than once.
func (b *Batcher) Close() {
	b.mu.Lock()
	already := b.closed
	b.closed = true
	if !already {
		close(b.reqs)
	}
	b.mu.Unlock()
	<-b.idle
	b.flights.Wait()
}

// collect is the batching loop: one batch per iteration, flushed on its own
// goroutine so gathering the next batch overlaps the current flush.
func (b *Batcher) collect() {
	defer close(b.idle)
	for {
		req, ok := <-b.reqs
		if !ok {
			return
		}
		batch := b.gather(req)
		b.flights.Add(1)
		go b.flush(batch)
	}
}

// gather admits requests after first until the window elapses, the batch is
// full, or the queue closes. Thresholded applies use a different operator
// (Gwt), so a batch holds one kind only: a mismatched arrival flushes into
// its own next batch via the one-slot handoff below.
func (b *Batcher) gather(first *applyReq) []*applyReq {
	batch := make([]*applyReq, 1, b.maxBatch)
	batch[0] = first
	var timeout <-chan time.Time
	if b.window > 0 {
		timer := time.NewTimer(b.window)
		defer timer.Stop()
		timeout = timer.C
	}
	for len(batch) < b.maxBatch {
		if b.window > 0 {
			select {
			case r, ok := <-b.reqs:
				if !ok {
					return batch
				}
				if r.thresholded != first.thresholded {
					return b.splitOff(batch, r)
				}
				batch = append(batch, r)
			case <-timeout:
				return batch
			}
		} else {
			select {
			case r, ok := <-b.reqs:
				if !ok {
					return batch
				}
				if r.thresholded != first.thresholded {
					return b.splitOff(batch, r)
				}
				batch = append(batch, r)
			default:
				return batch
			}
		}
	}
	return batch
}

// splitOff flushes a straggler of the other operator kind as its own batch
// and ends the current gather.
func (b *Batcher) splitOff(batch []*applyReq, r *applyReq) []*applyReq {
	b.flights.Add(1)
	go b.flush([]*applyReq{r})
	return batch
}

// panelPool recycles the column-major pack/unpack buffers used by flush:
// steady-state batching reuses the same two panels per flight instead of
// allocating 2·n·k floats per batch.
var panelPool = sync.Pool{New: func() any { return new([]float64) }}

// getPanel checks a panel of at least size entries out of panelPool.
func getPanel(size int) *[]float64 {
	p := panelPool.Get().(*[]float64)
	if cap(*p) < size {
		*p = make([]float64, size)
	}
	*p = (*p)[:size]
	return p
}

// flush runs one batch on a pool engine and completes every request in it:
// one ApplyPanelInto call for any width, so one sweep over the model
// structure computes every column. A multi-request batch is packed into a
// column-major panel; a lone request is its own width-1 panel and is
// applied straight into its dst, with nothing copied. Panics (engine
// misuse, impossible dimensions — all pre-validated, so this is a backstop)
// are converted to errors instead of killing the daemon, and the deferred
// Put returns the engine to the pool on every path.
func (b *Batcher) flush(batch []*applyReq) {
	defer b.flights.Done()
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("%w: %v", ErrApplyPanic, r)
			}
		}()
		eng, err := b.pool.Get(context.Background())
		if err != nil {
			return err
		}
		defer b.pool.Put(eng)
		b.rec.Add("serve/batches", 1)
		b.rec.Observe("serve/batch_size", float64(len(batch)))
		b.mFlushes.Inc()
		b.mBatch.Observe(float64(len(batch)))
		now := time.Now()
		for _, r := range batch {
			b.mWait.Observe(now.Sub(r.enq).Seconds())
		}
		sp := b.tr.Begin("serve/flush").Arg("cols", len(batch))
		defer sp.End()
		n, k := b.pool.Model().N, len(batch)
		dst, x := batch[0].dst, batch[0].x
		if k > 1 {
			xp, yp := getPanel(n*k), getPanel(n*k)
			defer panelPool.Put(xp)
			defer panelPool.Put(yp)
			dst, x = *yp, *xp
			for i, r := range batch {
				copy(x[i*n:(i+1)*n], r.x)
			}
		}
		eng.ApplyPanelInto(dst, x, k, b.workers, batch[0].thresholded)
		if k > 1 {
			for i, r := range batch {
				copy(r.dst, dst[i*n:(i+1)*n])
			}
		}
		return nil
	}()
	b.mDepth.Set(b.depth.Add(-int64(len(batch))))
	for _, r := range batch {
		r.done <- err
	}
}
