// Package par is the worker-pool primitive behind every parallel path in
// the extraction engine. All parallelism in this repository follows one
// discipline so that results are bitwise-identical for any worker count:
// work items are indexed, each item writes only its own preallocated output
// slot, and any cross-item reduction happens serially afterwards in index
// order. par.Do is the only fan-out primitive, which keeps that discipline
// easy to audit.
package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count option: values <= 0 select
// runtime.NumCPU(), anything else passes through.
func Workers(w int) int {
	if w <= 0 {
		return runtime.NumCPU()
	}
	return w
}

// Do runs fn(i) for every i in [0, n) across min(Workers(workers), n)
// goroutines. fn must write only state owned by item i. With one worker (or
// n <= 1) it runs inline with no goroutines, so serial and parallel
// executions share one code path.
func Do(workers, n int, fn func(i int)) {
	DoWorker(workers, n, func(_, i int) { fn(i) })
}

// DoWorker is Do with the pool-slot index exposed: fn(worker, i) runs item i
// on slot worker in [0, min(Workers(workers), n)). The slot index exists for
// observability (per-worker trace tracks) — it must never influence the
// computed result, which stays bitwise-identical for any worker count. The
// inline path runs every item as worker 0.
//
// A panic in fn reaches the caller on either path, so the caller's own
// recover covers its items. The pooled path recovers each item's panic on
// its goroutine, runs every other item, and after the pool drains panics
// on the caller with the value of the lowest panicking index.
func DoWorker(workers, n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var fail struct {
		sync.Mutex
		i int // lowest panicking index, n if none
		v any // its panic value
	}
	fail.i = n
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if p := call(fn, worker, i); p != nil {
					fail.Lock()
					if i < fail.i {
						fail.i, fail.v = i, p
					}
					fail.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	if fail.i < n {
		panic(fail.v)
	}
}

// call runs fn(worker, i) and returns the value it panicked with, or nil.
// (A panic(nil) recovers as a non-nil *runtime.PanicNilError.)
func call(fn func(worker, i int), worker, i int) (p any) {
	defer func() { p = recover() }()
	fn(worker, i)
	return nil
}

// DoErr is Do for fallible work. Every item runs (no cancellation — items
// are cheap relative to scheduling and results stay slot-deterministic);
// the returned error is the one from the lowest failing index, matching
// what a serial loop that stopped at the first failure would report.
func DoErr(workers, n int, fn func(i int) error) error {
	return DoWorkerErr(workers, n, func(_, i int) error { return fn(i) })
}

// DoWorkerErr is DoErr with the pool-slot index exposed (see DoWorker). A
// panic in fn is recovered and becomes item i's error, naming the item, on
// the inline and the pooled path alike: a faulty item fails the call
// instead of panicking on the caller.
func DoWorkerErr(workers, n int, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	DoWorker(workers, n, func(worker, i int) {
		errs[i] = recovered(fn, worker, i)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// recovered runs fn(worker, i), turning a panic into an error.
func recovered(fn func(worker, i int) error, worker, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("par: item %d panicked: %v", i, r)
		}
	}()
	return fn(worker, i)
}
