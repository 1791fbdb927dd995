package registry_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"subcouple/internal/core"
	"subcouple/internal/experiments"
	"subcouple/internal/geom"
	"subcouple/internal/model"
	"subcouple/internal/obs"
	"subcouple/internal/serve/registry"
	"subcouple/internal/solver"
)

// testModel extracts the 64-contact alternating example once per method, so
// the two methods give two distinct models (distinct fingerprints) over the
// same contact count — exactly what a hot swap flips between.
func testModel(t testing.TB, method core.Method) *model.Model {
	t.Helper()
	if m := extracted[method]; m != nil {
		return m
	}
	raw := geom.AlternatingGrid(32, 32, 8, 8, 1, 3)
	layout, maxLevel := core.Prepare(raw, 4)
	g := experiments.SyntheticG(layout)
	res, err := core.Extract(solver.NewDense(g), layout, core.Options{
		Method: method, MaxLevel: maxLevel, ThresholdFactor: 6,
	})
	if err != nil {
		t.Fatalf("%v: %v", method, err)
	}
	extracted[method] = res.Model()
	return res.Model()
}

var extracted = map[core.Method]*model.Model{}

func probeVec(n, shift int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = float64((i*31+shift*7)%17) - 8
	}
	return x
}

// direct computes the reference y on a fresh, private engine.
func direct(m *model.Model, x []float64) []float64 {
	y := make([]float64, m.N)
	model.NewEngine(m).ApplyInto(y, x)
	return y
}

func bitwiseEqual(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestLifecycle walks the whole load → swap → reswap → unload → close story
// and pins every sentinel on the way.
func TestLifecycle(t *testing.T) {
	m1, m2 := testModel(t, core.LowRank), testModel(t, core.Wavelet)
	reg := registry.New(registry.Options{PoolSize: 2})

	fp1, created, err := reg.Load(m1)
	if err != nil || !created {
		t.Fatalf("first load: created=%v err=%v", created, err)
	}
	if _, created, _ := reg.Load(m1); created {
		t.Fatal("reloading identical content must be idempotent (created=false)")
	}
	fp2, _, err := reg.Load(m2)
	if err != nil {
		t.Fatal(err)
	}
	if fp1 == fp2 {
		t.Fatalf("distinct models share fingerprint %016x", fp1)
	}
	if got := reg.Snapshot().Fingerprints(); len(got) != 2 {
		t.Fatalf("want 2 versions, got %v", got)
	}

	// Initial bind: no previous, no drain.
	res, err := reg.Swap("m", fp1)
	if err != nil {
		t.Fatal(err)
	}
	if res.HadPrevious {
		t.Fatalf("initial bind reported previous %016x", res.Previous)
	}

	// The activation serves the right bytes.
	x := probeVec(m1.N, 1)
	y := make([]float64, m1.N)
	act := reg.Snapshot().Lookup("m")
	if act == nil || act.Fingerprint() != fp1 {
		t.Fatalf("alias resolves to %v", act)
	}
	if err := act.Apply(context.Background(), y, x, false); err != nil {
		t.Fatal(err)
	}
	if !bitwiseEqual(y, direct(m1, x)) {
		t.Fatal("served apply differs from direct engine")
	}

	// Unload refuses while aliased.
	if err := reg.Unload(fp1); !errors.Is(err, registry.ErrVersionAliased) {
		t.Fatalf("unload of aliased version: %v, want ErrVersionAliased", err)
	}
	if st := reg.Stats(); st.UnloadRefused != 1 {
		t.Fatalf("unload_refused = %d, want 1", st.UnloadRefused)
	}

	// Swap away, then the unload goes through.
	res, err = reg.Swap("m", fp2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HadPrevious || res.Previous != fp1 {
		t.Fatalf("swap reported previous %016x (had=%v), want %016x", res.Previous, res.HadPrevious, fp1)
	}
	if err := reg.Unload(fp1); err != nil {
		t.Fatal(err)
	}
	if err := reg.Unload(fp1); !errors.Is(err, registry.ErrUnknownVersion) {
		t.Fatalf("double unload: %v, want ErrUnknownVersion", err)
	}
	if _, err := reg.Swap("m2", fp1); !errors.Is(err, registry.ErrUnknownVersion) {
		t.Fatalf("swap to unloaded version: %v, want ErrUnknownVersion", err)
	}

	st := reg.Stats()
	if st.Loads != 2 || st.Swaps != 2 || st.Unloads != 1 || st.Versions != 1 || st.Aliases != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.DrainCount != 1 {
		t.Fatalf("drain count %d, want 1 (one displacement)", st.DrainCount)
	}

	// Close: mutations refuse, the snapshot stays readable.
	reg.Close()
	reg.Close() // idempotent
	if _, _, err := reg.Load(m1); !errors.Is(err, registry.ErrRegistryClosed) {
		t.Fatalf("load after close: %v", err)
	}
	if _, err := reg.Swap("m", fp2); !errors.Is(err, registry.ErrRegistryClosed) {
		t.Fatalf("swap after close: %v", err)
	}
	if err := reg.Unload(fp2); !errors.Is(err, registry.ErrRegistryClosed) {
		t.Fatalf("unload after close: %v", err)
	}
	if reg.Snapshot().Lookup("m") == nil {
		t.Fatal("snapshot must stay readable after close")
	}
	if err := reg.Snapshot().Lookup("m").Apply(context.Background(), y, x, false); !errors.Is(err, registry.ErrClosed) {
		t.Fatalf("apply after close: %v, want ErrClosed", err)
	}
}

// TestPoolGaugeSumsActivationsAcrossSwap pins the per-alias pool gauge
// across a hot swap: the displaced activation and the live one share the
// alias's series, so it must show the engines both hold, not whichever
// activation wrote last.
func TestPoolGaugeSumsActivationsAcrossSwap(t *testing.T) {
	ms := obs.NewMetrics()
	reg := registry.New(registry.Options{PoolSize: 1, Metrics: ms})
	defer reg.Close()
	fp1, _, err := reg.Load(testModel(t, core.LowRank))
	if err != nil {
		t.Fatal(err)
	}
	fp2, _, err := reg.Load(testModel(t, core.Wavelet))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Swap("m", fp1); err != nil {
		t.Fatal(err)
	}
	gauge := ms.Gauge(registry.MetricPoolInUse, "", "model", "m")
	want := func(step string, n int64) {
		t.Helper()
		if got := gauge.Value(); got != n {
			t.Fatalf("%s: %s = %d, want %d", step, registry.MetricPoolInUse, got, n)
		}
	}

	ctx := context.Background()
	oldPool := reg.Snapshot().Lookup("m").Pool()
	oldEng, err := oldPool.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want("old activation holds its engine", 1)
	// The swap drains the old batcher only; the engine checked out of the
	// old pool stays out across it.
	if _, err := reg.Swap("m", fp2); err != nil {
		t.Fatal(err)
	}
	newPool := reg.Snapshot().Lookup("m").Pool()
	newEng, err := newPool.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want("both activations hold an engine", 2)
	oldPool.Put(oldEng)
	want("old engine released", 1)
	newPool.Put(newEng)
	want("both released", 0)
}

// TestPoolEnginesRecordWithoutAllocating pins the daemon's kernel path: a
// pool's engines record each apply once, into the registry's kernel
// histogram, so a served apply allocates nothing.
func TestPoolEnginesRecordWithoutAllocating(t *testing.T) {
	ms := obs.NewMetrics()
	reg := registry.New(registry.Options{PoolSize: 1, Metrics: ms})
	defer reg.Close()
	m := testModel(t, core.LowRank)
	fp, _, err := reg.Load(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Swap("m", fp); err != nil {
		t.Fatal(err)
	}
	pool := reg.Snapshot().Lookup("m").Pool()
	eng, err := pool.Get(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Put(eng)

	const k = 4
	x, y := make([]float64, k*m.N), make([]float64, k*m.N)
	for c := 0; c < k; c++ {
		copy(x[c*m.N:], probeVec(m.N, c))
	}
	eng.ApplyPanelInto(y, x, k, 1, false) // warm panel scratch
	if avg := testing.AllocsPerRun(20, func() { eng.ApplyPanelInto(y, x, k, 1, false) }); avg != 0 {
		t.Fatalf("pool engine ApplyPanelInto allocates %.1f objects per call", avg)
	}
	panel := ms.Histogram(model.MetricApplySeconds, "", "kind", "panel", "mode", "exact")
	if got := panel.Count(); got != 22 {
		t.Fatalf(`engine kind="panel" samples = %d, want 22 (warm-up + AllocsPerRun's 21 runs)`, got)
	}
}

// TestSnapshotReadIsAllocationFree pins the acceptance criterion for the
// request path: resolving a model through the registry is one atomic load
// plus a map lookup — zero allocations.
func TestSnapshotReadIsAllocationFree(t *testing.T) {
	reg := registry.New(registry.Options{PoolSize: 1})
	fp, _, err := reg.Load(testModel(t, core.LowRank))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Swap("m", fp); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	var act *registry.Active
	allocs := testing.AllocsPerRun(1000, func() {
		act = reg.Snapshot().Lookup("m")
	})
	if act == nil {
		t.Fatal("lookup failed")
	}
	if allocs != 0 {
		t.Fatalf("snapshot read allocates %v per op, want 0", allocs)
	}
}

// TestConcurrentSwapNeverBlends is the tentpole race test: client
// goroutines apply against one alias while swaps flip it between two
// fingerprints. Every response must be bitwise equal to one of the two
// models' direct-engine outputs — a swap may pick which version serves a
// request, but never mix them — and no request may be dropped.
func TestConcurrentSwapNeverBlends(t *testing.T) {
	m1, m2 := testModel(t, core.LowRank), testModel(t, core.Wavelet)
	reg := registry.New(registry.Options{PoolSize: 2})
	fp1, _, err := reg.Load(m1)
	if err != nil {
		t.Fatal(err)
	}
	fp2, _, err := reg.Load(m2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Swap("m", fp1); err != nil {
		t.Fatal(err)
	}

	const clients = 8
	const perClient = 40
	const swaps = 20

	// Precompute the only two acceptable answers per probe.
	want1 := make([][]float64, clients)
	want2 := make([][]float64, clients)
	for c := 0; c < clients; c++ {
		x := probeVec(m1.N, c)
		want1[c], want2[c] = direct(m1, x), direct(m2, x)
	}

	var wg sync.WaitGroup
	var failures atomic.Int64
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			x := probeVec(m1.N, c)
			y := make([]float64, m1.N)
			for i := 0; i < perClient; i++ {
				// The serving loop every handler runs: resolve, apply,
				// re-resolve on swap displacement.
				for {
					act := reg.Snapshot().Lookup("m")
					if act == nil {
						errCh <- fmt.Errorf("alias vanished")
						return
					}
					err := act.Apply(context.Background(), y, x, false)
					if err == nil {
						break
					}
					if !errors.Is(err, registry.ErrClosed) {
						errCh <- fmt.Errorf("client %d apply %d: %v", c, i, err)
						return
					}
				}
				if !bitwiseEqual(y, want1[c]) && !bitwiseEqual(y, want2[c]) {
					failures.Add(1)
				}
			}
		}(c)
	}

	fps := [2]uint64{fp1, fp2}
	for i := 0; i < swaps; i++ {
		if _, err := reg.Swap("m", fps[(i+1)%2]); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if n := failures.Load(); n > 0 {
		t.Fatalf("%d responses matched neither model's direct output (blended or torn apply)", n)
	}

	st := reg.Stats()
	if st.Swaps != int64(swaps)+1 {
		t.Fatalf("swaps = %d, want %d", st.Swaps, swaps+1)
	}
	reg.Close()
}

// waitUntil polls cond until it holds, failing the test after 10 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// heldBatcher returns a batcher over a one-engine pool whose engine the
// test holds, so every Apply queues until release puts the engine back.
// Release is idempotent, and cleanup runs it before the batcher's Close,
// so a failing test cannot hang the drain.
func heldBatcher(t *testing.T, m *model.Model, maxBatch int, ms *obs.Metrics) (b *registry.Batcher, release func()) {
	t.Helper()
	pool := registry.NewPool(m, 1, nil)
	b = registry.NewBatcher(pool, maxBatch, 1, nil)
	b.SetMetrics(ms, "m")
	t.Cleanup(b.Close)
	eng, err := pool.Get(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	release = func() { once.Do(func() { pool.Put(eng) }) }
	t.Cleanup(release)
	return b, release
}

// flushBehindHeldEngine queues one apply per entry of thresholded behind
// a held engine, in order: each starts only after the one before it is
// queued, so the collector holds the first while it waits for the engine
// and the rest sit in the channel in arrival order. It then releases the
// engine and checks every answer bitwise against a single apply of its
// operator (ApplyInto for the plain one), and that flushes batches
// carried them all.
func flushBehindHeldEngine(t *testing.T, thresholded []bool, flushes int64) {
	t.Helper()
	m := testModel(t, core.LowRank)
	ms := obs.NewMetrics()
	b, release := heldBatcher(t, m, 8, ms)
	ys := make([][]float64, len(thresholded))
	errs := make([]error, len(thresholded))
	var wg sync.WaitGroup
	for i, th := range thresholded {
		ys[i] = make([]float64, m.N)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = b.Apply(context.Background(), ys[i], probeVec(m.N, i), th)
		}()
		waitUntil(t, fmt.Sprintf("apply %d is queued", i), func() bool {
			return b.QueueDepth() == i+1 && b.Queued() == i
		})
	}
	release()
	wg.Wait()
	for i, th := range thresholded {
		if errs[i] != nil {
			t.Fatalf("apply %d: %v", i, errs[i])
		}
		want := direct(m, probeVec(m.N, i))
		if th {
			model.NewEngine(m).ApplyPanelInto(want, probeVec(m.N, i), 1, 1, true)
		}
		if !bitwiseEqual(ys[i], want) {
			t.Fatalf("apply %d (thresholded %v) differs from its operator's single apply", i, th)
		}
	}
	bs := ms.Histogram(registry.MetricBatchSize, "", "model", "m")
	if bs.Count() != flushes || bs.Sum() != float64(len(thresholded)) {
		t.Fatalf("%d flushes carried %v requests, want %d carrying %d", bs.Count(), bs.Sum(), flushes, len(thresholded))
	}
}

// TestBusyEngineFusesQueue pins engine-first coalescing: with a one-engine
// pool's engine held, five applies queue, and the engine's return flushes
// all of them as one width-5 panel, each column bitwise equal to ApplyInto.
func TestBusyEngineFusesQueue(t *testing.T) {
	flushBehindHeldEngine(t, []bool{false, false, false, false, false}, 1)
}

// TestBatchHoldsOneOperatorKind pins the split at a kind change: plain,
// plain, thresholded and plain applies queued behind a held engine flush as
// batches of 2, 1 and 1 (three flushes carrying four requests can only be
// that), and each runs its own operator bitwise.
func TestBatchHoldsOneOperatorKind(t *testing.T) {
	flushBehindHeldEngine(t, []bool{false, false, true, false}, 3)
}

// TestQueueDepthCountsBlockedSenders pins the shedding signal under an
// engine-first collector: while it waits for an engine it stops reading
// the queue, yet every apply past the closed check counts, including those
// still waiting to enter the full channel. An apply whose context ends
// before admission is uncounted.
func TestQueueDepthCountsBlockedSenders(t *testing.T) {
	const applies, maxBatch = 10, 2
	m := testModel(t, core.LowRank)
	ms := obs.NewMetrics()
	b, release := heldBatcher(t, m, maxBatch, ms)
	gauge := ms.Gauge(registry.MetricQueueDepth, "", "model", "m")

	ys := make([][]float64, applies)
	errs := make([]error, applies)
	var wg sync.WaitGroup
	for i := range ys {
		ys[i] = make([]float64, m.N)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = b.Apply(context.Background(), ys[i], probeVec(m.N, i), false)
		}()
	}
	waitUntil(t, fmt.Sprintf("queue depth counts all %d applies", applies), func() bool {
		return b.QueueDepth() == applies
	})
	waitUntil(t, "the channel is full", func() bool { return b.Queued() == 2*maxBatch })
	if got := gauge.Value(); got != applies {
		t.Fatalf("queue-depth gauge %d, want %d", got, applies)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := b.Apply(ctx, make([]float64, m.N), probeVec(m.N, 0), false); !errors.Is(err, context.Canceled) {
		t.Fatalf("apply with an ended context on a full queue: %v, want context.Canceled", err)
	}
	if got, gv := b.QueueDepth(), gauge.Value(); got != applies || gv != applies {
		t.Fatalf("after a refused admission: depth %d, gauge %d, want %d", got, gv, applies)
	}

	release()
	wg.Wait()
	for i := range ys {
		if errs[i] != nil {
			t.Fatalf("apply %d: %v", i, errs[i])
		}
		if !bitwiseEqual(ys[i], direct(m, probeVec(m.N, i))) {
			t.Fatalf("apply %d differs from ApplyInto", i)
		}
	}
	if got, gv := b.QueueDepth(), gauge.Value(); got != 0 || gv != 0 {
		t.Fatalf("after the backlog drained: depth %d, gauge %d, want 0", got, gv)
	}
}
