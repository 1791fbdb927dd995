package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.NumCPU() {
		t.Fatalf("Workers(0) = %d, want NumCPU = %d", got, runtime.NumCPU())
	}
	if got := Workers(-3); got != runtime.NumCPU() {
		t.Fatalf("Workers(-3) = %d, want NumCPU = %d", got, runtime.NumCPU())
	}
	if got := Workers(5); got != 5 {
		t.Fatalf("Workers(5) = %d", got)
	}
}

func TestDoVisitsEachIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 100} {
		const n = 57
		counts := make([]atomic.Int64, n)
		Do(workers, n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestDoZeroItems(t *testing.T) {
	Do(4, 0, func(i int) { t.Fatalf("fn called for n=0 (i=%d)", i) })
}

func TestDoErrReturnsLowestIndexError(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	for _, workers := range []int{1, 4} {
		err := DoErr(workers, 20, func(i int) error {
			switch i {
			case 3:
				return errLow
			case 17:
				return errHigh
			}
			return nil
		})
		if err != errLow {
			t.Fatalf("workers=%d: got %v, want the lowest-index error", workers, err)
		}
	}
	if err := DoErr(4, 20, func(int) error { return nil }); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestDoWorkerSlotIndexBounds(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		const n = 40
		slots := workers
		if slots > n {
			slots = n
		}
		counts := make([]atomic.Int64, n)
		var bad atomic.Int64
		DoWorker(workers, n, func(worker, i int) {
			counts[i].Add(1)
			if worker < 0 || worker >= slots {
				bad.Add(1)
			}
		})
		if bad.Load() != 0 {
			t.Fatalf("workers=%d: slot index escaped [0, %d)", workers, slots)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestDoWorkerInlinePathIsWorkerZero(t *testing.T) {
	var maxWorker atomic.Int64
	DoWorker(1, 10, func(worker, i int) {
		if int64(worker) > maxWorker.Load() {
			maxWorker.Store(int64(worker))
		}
	})
	if maxWorker.Load() != 0 {
		t.Fatalf("serial path used worker slot %d, want 0", maxWorker.Load())
	}
}

func TestDoWorkerErrPropagatesLowestIndexError(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	err := DoWorkerErr(4, 20, func(worker, i int) error {
		switch i {
		case 5:
			return errLow
		case 15:
			return errHigh
		}
		return nil
	})
	if err != errLow {
		t.Fatalf("got %v, want the lowest-index error", err)
	}
}

// TestDoWorkerErrRecoversPanics: a panicking item fails the call with an
// error naming the lowest panicking item, on the inline path (one worker)
// and the pooled path alike, and every other item still runs.
func TestDoWorkerErrRecoversPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := DoWorkerErr(workers, 20, func(_, i int) error {
			ran.Add(1)
			if i == 7 || i == 12 {
				panic(fmt.Sprintf("fault %d", i))
			}
			return nil
		})
		if err == nil || err.Error() != "par: item 7 panicked: fault 7" {
			t.Fatalf("workers=%d: got %v, want item 7's panic", workers, err)
		}
		if ran.Load() != 20 {
			t.Fatalf("workers=%d: %d items ran, want 20", workers, ran.Load())
		}
	}
}

// TestDoWorkerPanicReachesCaller: a panicking item of the infallible
// fan-out panics on the caller, where a recover can catch it, with the
// lowest panicking item's value, on the inline and the pooled path alike;
// the pooled path still runs every other item first.
func TestDoWorkerPanicReachesCaller(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		var ran atomic.Int64
		got := func() (p any) {
			defer func() { p = recover() }()
			DoWorker(workers, 20, func(_, i int) {
				ran.Add(1)
				if i == 7 || i == 12 {
					panic(fmt.Sprintf("fault %d", i))
				}
			})
			return nil
		}()
		if got != "fault 7" {
			t.Fatalf("workers=%d: recovered %v, want item 7's panic value", workers, got)
		}
		want := int64(20) // the pooled path runs every item
		if workers == 1 {
			want = 8 // the inline path stops at the panic
		}
		if ran.Load() != want {
			t.Fatalf("workers=%d: %d items ran, want %d", workers, ran.Load(), want)
		}
	}
}
