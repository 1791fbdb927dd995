package registry

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"subcouple/internal/model"
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
// multi-RHS panel applies, engine-first: the collector goroutine takes the
// next request, checks an engine out of the pool, and only then closes the
// batch with everything else already queued (up to maxBatch, one operator
// kind). On an idle daemon a lone request therefore runs at once as a
// width-1 panel; while every engine is busy the queue grows, and the next
// free engine takes all of it into one Engine.ApplyPanelInto. Flushes run
// concurrently up to the pool size. No timer ever holds a request back.
//
// Coalescing is invisible in the response bytes: the panel kernels compute
// each column with exactly the single-RHS arithmetic (and are bitwise
// deterministic for any worker count), so a batched response is identical
// to the unbatched one.
type Batcher struct {
	pool     *Pool
	maxBatch int
	workers  int
	tr       *obs.Tracer

	reqs    chan *applyReq
	idle    chan struct{} // closed when the collector exits
	flights sync.WaitGroup

	// depth counts requests from the moment they pass the closed check
	// until their flush completes: those waiting to enter reqs while the
	// collector waits for an engine, those queued in it, and those in a
	// flush. It is the queue-depth signal behind the shedding /readyz. The
	// queue-depth gauge moves by the same deltas, so a draining activation
	// and the live one sharing an alias's series add up instead of
	// overwriting each other.
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
// enq stamps admission so the flush can observe how long the request
// waited for an engine.
type applyReq struct {
	x, dst      []float64
	thresholded bool
	enq         time.Time
	done        chan error
}

// NewBatcher starts the collector for pool with the given batch bound
// (<= 0 selects DefaultMaxBatch) and engine worker count.
func NewBatcher(pool *Pool, maxBatch, workers int, tr *obs.Tracer) *Batcher {
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	b := &Batcher{
		pool:     pool,
		maxBatch: maxBatch,
		workers:  workers,
		tr:       tr,
		// Two batches of slack: a full batch can queue behind the one the
		// collector is closing before senders start to block.
		reqs: make(chan *applyReq, 2*maxBatch),
		idle: make(chan struct{}),
	}
	go b.collect()
	return b
}

// SetMetrics attaches live metrics handles labeled with the registered
// model name. Call before serving starts; a nil registry leaves everything
// a no-op.
func (b *Batcher) SetMetrics(ms *obs.Metrics, name string) {
	b.mDepth = ms.Gauge(MetricQueueDepth, "applies admitted but not yet completed (queued + in-flight flushes)", "model", name)
	b.mBatch = ms.HistogramBuckets(MetricBatchSize, "requests coalesced into one flush", BatchSizeBuckets, "model", name)
	b.mWait = ms.Histogram(MetricWindowWaitSeconds, "admission-to-flush wait per request (the latency cost of coalescing)", "model", name)
	b.mFlushes = ms.Counter(MetricBatchFlushes, "batches flushed through the engine pool", "model", name)
}

// QueueDepth returns the number of admitted-but-incomplete applies.
func (b *Batcher) QueueDepth() int { return int(b.depth.Load()) }

// count moves the queue depth and its gauge by delta.
func (b *Batcher) count(delta int64) {
	b.depth.Add(delta)
	b.mDepth.Add(delta)
}

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
	// Count the request before the send: while the collector waits for an
	// engine it stops reading reqs, and a backlog beyond the channel's
	// buffer waits right here. Shedding must see it.
	b.count(1)
	select {
	case b.reqs <- req:
		b.mu.RUnlock()
	case <-ctx.Done():
		b.mu.RUnlock()
		b.count(-1)
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

// collect is the batching loop. Each iteration takes the next request (or
// the one carried over from the last batch), waits for a free engine, then
// drains whatever else is queued without blocking and hands engine and
// batch to a flush goroutine. Thresholded applies use a different operator
// (Gwt), so a batch holds one kind only: the first request of the other
// kind ends the batch and opens the next one.
func (b *Batcher) collect() {
	defer close(b.idle)
	var next *applyReq
	for {
		first := next
		if first == nil {
			r, ok := <-b.reqs
			if !ok {
				return
			}
			first = r
		}
		// Background never ends, so Get cannot fail: an admitted request
		// always runs.
		eng, _ := b.pool.Get(context.Background())
		batch := append(make([]*applyReq, 0, b.maxBatch), first)
		next = nil
	fill:
		for len(batch) < b.maxBatch {
			select {
			case r, ok := <-b.reqs:
				if !ok {
					break fill
				}
				if r.thresholded != first.thresholded {
					next = r
					break fill
				}
				batch = append(batch, r)
			default:
				break fill
			}
		}
		b.flights.Add(1)
		go b.flush(eng, batch)
	}
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

// flush runs one batch on the engine the collector checked out and
// completes every request in it: one ApplyPanelInto call for any width, so
// one sweep over the model structure computes every column. A
// multi-request batch is packed into a column-major panel; a lone request
// is its own width-1 panel and is applied straight into its dst, with
// nothing copied. Panics (engine misuse, impossible dimensions — all
// pre-validated, so this is a backstop) are converted to errors instead of
// killing the daemon, and the deferred Put returns the engine to the pool
// on every path.
func (b *Batcher) flush(eng *model.Engine, batch []*applyReq) {
	defer b.flights.Done()
	err := func() (err error) {
		defer b.pool.Put(eng)
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("%w: %v", ErrApplyPanic, r)
			}
		}()
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
	b.count(-int64(len(batch)))
	for _, r := range batch {
		r.done <- err
	}
}
