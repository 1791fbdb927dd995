package solver

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"subcouple/internal/obs"
)

// stubSolver returns a copy of the input scaled by 2 and errors on a
// designated index (marked by v[0]).
type stubSolver struct {
	n       int
	failOn  float64
	batches int // incremented when SolveBatch-as-BatchSolver is used
}

func (s *stubSolver) N() int { return s.n }

func (s *stubSolver) Solve(v []float64) ([]float64, error) {
	if s.failOn != 0 && v[0] == s.failOn {
		return nil, errors.New("stub failure")
	}
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = 2 * x
	}
	return out, nil
}

// batchStub additionally implements BatchSolver and WorkerSetter.
type batchStub struct {
	stubSolver
	workers int
}

func (s *batchStub) SetWorkers(w int) { s.workers = w }

func (s *batchStub) SolveBatch(vs [][]float64) ([][]float64, error) {
	s.batches++
	out := make([][]float64, len(vs))
	for i, v := range vs {
		r, err := s.Solve(v)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

func batchOf(n, k int) [][]float64 {
	vs := make([][]float64, k)
	for i := range vs {
		vs[i] = make([]float64, n)
		vs[i][i%n] = float64(i + 1)
	}
	return vs
}

func TestParallelSolveBatchMatchesSerial(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p := Parallel(&stubSolver{n: 4}, workers)
		vs := batchOf(4, 11)
		got, err := p.SolveBatch(vs)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vs {
			for j := range v {
				if got[i][j] != 2*v[j] {
					t.Fatalf("workers=%d: batch slot %d wrong", workers, i)
				}
			}
		}
	}
}

func TestParallelSolveBatchError(t *testing.T) {
	p := Parallel(&stubSolver{n: 4, failOn: 5}, 4)
	if _, err := p.SolveBatch(batchOf(4, 11)); err == nil {
		t.Fatalf("expected the failing solve's error")
	}
}

func TestParallelPrefersNativeBatchAndPropagatesWorkers(t *testing.T) {
	b := &batchStub{stubSolver: stubSolver{n: 4}}
	p := Parallel(b, 3)
	if b.workers != 3 {
		t.Fatalf("SetWorkers not called: workers = %d", b.workers)
	}
	if _, err := p.SolveBatch(batchOf(4, 5)); err != nil {
		t.Fatal(err)
	}
	if b.batches != 1 {
		t.Fatalf("native SolveBatch used %d times, want 1", b.batches)
	}
}

func TestParallelRewrapReplacesWorkerCount(t *testing.T) {
	inner := &stubSolver{n: 2}
	p := Parallel(Parallel(inner, 8), 1).(*parallelSolver)
	if p.s != Solver(inner) {
		t.Fatalf("re-wrapping nested the adapters instead of replacing")
	}
	if p.workers != 1 {
		t.Fatalf("workers = %d, want 1", p.workers)
	}
}

func TestCountingSolveBatch(t *testing.T) {
	c := NewCounting(Parallel(&stubSolver{n: 3}, 2))
	if _, err := c.SolveBatch(batchOf(3, 7)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Solve([]float64{1, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if c.Solves != 8 {
		t.Fatalf("Solves = %d, want 8", c.Solves)
	}
}

// rendezvousSolver is a plain Solver (no BatchSolver) whose Solve blocks
// until `need` calls are in flight simultaneously. A sequentialized batch
// never reaches the rendezvous and times out instead, so completing at all
// proves concurrent execution — even on GOMAXPROCS=1, where the blocked
// goroutines simply yield.
type rendezvousSolver struct {
	n       int
	need    int32
	arrived atomic.Int32
	release chan struct{}
}

func (s *rendezvousSolver) N() int { return s.n }

func (s *rendezvousSolver) Solve(v []float64) ([]float64, error) {
	if s.arrived.Add(1) == s.need {
		close(s.release)
	}
	select {
	case <-s.release:
	case <-time.After(5 * time.Second):
		return nil, errors.New("rendezvous timeout: batch ran sequentially")
	}
	out := make([]float64, len(v))
	copy(out, v)
	return out, nil
}

func TestParallelCountingPlainSolverRunsConcurrently(t *testing.T) {
	const k = 4
	inner := &rendezvousSolver{n: 3, need: k, release: make(chan struct{})}
	c := NewCounting(inner)
	p := Parallel(c, k)
	got, err := p.SolveBatch(batchOf(3, k))
	if err != nil {
		t.Fatalf("batch did not run concurrently: %v", err)
	}
	if len(got) != k {
		t.Fatalf("got %d responses, want %d", len(got), k)
	}
	for i, v := range batchOf(3, k) {
		for j := range v {
			if got[i][j] != v[j] {
				t.Fatalf("slot %d corrupted", i)
			}
		}
	}
	if c.Solves != k {
		t.Fatalf("Solves = %d, want %d (unwrapping lost the count)", c.Solves, k)
	}
}

func TestParallelCountingRecordsBatchStats(t *testing.T) {
	ms := obs.NewMetrics()
	c := NewCounting(&stubSolver{n: 3})
	p := Parallel(c, 2)
	p.(obs.Setter).SetObs(ms, nil)
	if _, err := p.SolveBatch(batchOf(3, 5)); err != nil {
		t.Fatal(err)
	}
	s, _ := ms.Report()
	if s.Counters["solver/solves"] != 5 || s.Counters["solver/batches"] != 1 {
		t.Fatalf("counters wrong: %+v", s.Counters)
	}
	if h := s.Histograms["solver/batch_size"]; h.Count != 1 || h.Max != 5 {
		t.Fatalf("batch_size hist wrong: %+v", h)
	}
	if h := s.Histograms["solver/busy_workers"]; h.Count != 1 || h.Max != 2 {
		t.Fatalf("busy_workers hist wrong: %+v", h)
	}
}

func TestPackageSolveBatchFallsBackToLoop(t *testing.T) {
	s := &stubSolver{n: 3}
	got, err := SolveBatch(s, batchOf(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("got %d responses", len(got))
	}
	s.failOn = 4
	if _, err := SolveBatch(s, batchOf(3, 4)); err == nil {
		t.Fatalf("expected error from the failing solve")
	}
}

func TestExtractColumnsOutOfRange(t *testing.T) {
	s := &stubSolver{n: 3}
	if _, err := ExtractColumns(s, []int{0, 3}); err == nil {
		t.Fatalf("expected out-of-range error")
	}
	if _, err := ExtractColumns(s, []int{-1}); err == nil {
		t.Fatalf("expected negative-index error")
	}
}
