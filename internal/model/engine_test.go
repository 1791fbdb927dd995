package model_test

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"subcouple/internal/core"
	"subcouple/internal/model"
)

// expectPanic runs f and requires a panic whose message contains every
// substring in want — on the calling goroutine, so misuse is recoverable
// instead of killing the process from inside a pool worker.
func expectPanic(t *testing.T, want []string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic (want message containing %q)", want)
		}
		msg := fmt.Sprint(r)
		for _, w := range want {
			if !strings.Contains(msg, w) {
				t.Fatalf("panic %q does not mention %q", msg, w)
			}
		}
	}()
	f()
}

// TestApplyIntoValidatesVectors pins the clearer single-RHS messages: the
// argument at fault and both lengths, instead of the old blanket
// "apply dimension mismatch".
func TestApplyIntoValidatesVectors(t *testing.T) {
	res := extract256(t, core.LowRank)
	eng := model.NewEngine(res.Model())
	n := res.N()
	x, out := probeVec(n, 1), make([]float64, n)

	expectPanic(t, []string{"ApplyInto", "x", fmt.Sprint(n - 3)},
		func() { eng.ApplyInto(out, x[:n-3]) })
	expectPanic(t, []string{"ApplyInto", "dst", "nil"},
		func() { eng.ApplyInto(nil, x) })
	expectPanic(t, []string{"ApplyPanelInto", "x", fmt.Sprint(n - 1)},
		func() { eng.ApplyPanelInto(out, x[:n-1], 1, 1, true) })
	expectPanic(t, []string{"ColumnInto", "column", fmt.Sprint(n)},
		func() { eng.ColumnInto(out, n, false) })
	expectPanic(t, []string{"ColumnInto", "dst", "4"},
		func() { eng.ColumnInto(out[:4], 0, true) })
	expectPanic(t, []string{"QColumnInto", "column"},
		func() { eng.QColumnInto(out, -1) })

	// A recovered validation panic must leave the engine usable.
	eng.ApplyInto(out, x)
}

// TestEngineConcurrentUsePanics races two goroutines over ApplyInto on one
// shared Engine: the in-use guard must trip with a clear panic instead of
// letting the two applies silently corrupt each other's scratch. The loop
// runs until the overlap is observed (async preemption makes this near-
// immediate even on one CPU) with a generous deadline as the flake guard.
func TestEngineConcurrentUsePanics(t *testing.T) {
	res := extract256(t, core.LowRank)
	eng := model.NewEngine(res.Model())
	n := res.N()

	var panics atomic.Int64
	var stop atomic.Bool
	start := make(chan struct{})
	deadline := time.Now().Add(20 * time.Second)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x, out := probeVec(n, g+1), make([]float64, n)
			<-start
			for !stop.Load() && time.Now().Before(deadline) {
				func() {
					defer func() {
						if r := recover(); r != nil {
							if !strings.Contains(fmt.Sprint(r), "concurrent") {
								t.Errorf("unexpected panic: %v", r)
							}
							panics.Add(1)
							stop.Store(true)
						}
					}()
					eng.ApplyInto(out, x)
				}()
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if panics.Load() == 0 {
		t.Fatal("two goroutines raced ApplyInto on one Engine without tripping the in-use guard")
	}

	// The survivor released the guard; the engine must serve again.
	eng.ApplyInto(make([]float64, n), probeVec(n, 0))
}

// TestFingerprintStableAcrossEngines pins that Fingerprint depends only on
// the operator: fresh engines over the same model, at different worker
// counts, report the identical value (this is what lets CI compare a
// subserve daemon against subx -load).
func TestFingerprintStableAcrossEngines(t *testing.T) {
	for _, method := range []core.Method{core.Wavelet, core.LowRank} {
		res := extract256(t, method)
		base := model.NewEngine(res.Model()).Fingerprint(1)
		for _, workers := range []int{0, 2, 4} {
			if got := model.NewEngine(res.Model()).Fingerprint(workers); got != base {
				t.Fatalf("%v: fingerprint %016x at workers=%d, want %016x", method, got, workers, base)
			}
		}
	}
}
