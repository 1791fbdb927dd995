package experiments

import (
	"os"
	"testing"

	"subcouple/internal/core"
	"subcouple/internal/geom"
	"subcouple/internal/lowrank"
	"subcouple/internal/obs"
	"subcouple/internal/solver"
)

func TestExampleConstructors(t *testing.T) {
	for _, c := range []Case{
		Example1a(Small), Example1a(Full),
		Example2(Small), Example2(Full),
		Example3(Small), Example3(Full),
		ExampleMixed(), Example4(), Example5(),
	} {
		if err := c.Layout.Validate(); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if c.MaxLevel < 2 || c.NP <= 0 {
			t.Fatalf("%s: bad parameters %+v", c.Name, c)
		}
		if err := Profile(c).Validate(); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
	}
	if Example4().Layout.N() != 4096 {
		t.Fatalf("Example4 has %d contacts", Example4().Layout.N())
	}
	if Example5().Layout.N() != 10240 {
		t.Fatalf("Example5 has %d contacts", Example5().Layout.N())
	}
}

func TestBemSolverBuildsForAllSmallExamples(t *testing.T) {
	for _, c := range []Case{Example1a(Small), Example2(Small), Example3(Small), ExampleMixed()} {
		if _, err := BemSolver(c); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
	}
}

func TestRunSparsifySmoke(t *testing.T) {
	c := Example1a(Small)
	g, err := ExactG(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []core.Method{core.Wavelet, core.LowRank} {
		st, err := RunSparsify(c, g, m, 32)
		if err != nil {
			t.Fatal(err)
		}
		if st.N != c.Layout.N() || st.Solves <= 0 {
			t.Fatalf("%v: bad stats %+v", m, st)
		}
		if st.SparsityGwt < st.SparsityGw {
			t.Fatalf("%v: thresholding reduced sparsity", m)
		}
		if st.ErrSampleColumns != 32 {
			t.Fatalf("%v: sampled %d columns", m, st.ErrSampleColumns)
		}
		// Regular layout: both methods accurate (scale-relative RMS is
		// checked elsewhere; here just sanity-bound the fraction).
		if st.FracAbove10 > 0.5 {
			t.Fatalf("%v: %f of entries off by >10%% on the regular layout", m, st.FracAbove10)
		}
	}
}

func TestRunSparsifyBlackBoxSmoke(t *testing.T) {
	c := Example1a(Small)
	s, err := BemSolver(c)
	if err != nil {
		t.Fatal(err)
	}
	st, err := RunSparsifyBlackBox(c, s, core.LowRank, 16)
	if err != nil {
		t.Fatal(err)
	}
	if st.ErrSampleColumns != 16 {
		t.Fatalf("sampled %d columns", st.ErrSampleColumns)
	}
	if st.FracAbove10 > 0.3 {
		t.Fatalf("black-box pipeline inaccurate: %f >10%%", st.FracAbove10)
	}
}

func TestTable22Smoke(t *testing.T) {
	rows, err := Table22(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	// The paper's headline: the eigenfunction solver is much faster.
	if rows[1].SecondsPerSolve >= rows[0].SecondsPerSolve {
		t.Fatalf("eigenfunction (%g s) not faster than FD (%g s)",
			rows[1].SecondsPerSolve, rows[0].SecondsPerSolve)
	}
	for _, r := range rows {
		if r.ItersPerSolve <= 0 {
			t.Fatalf("%s: no iterations recorded", r.Name)
		}
	}
}

// TestModelDirCache pins the -models reuse contract: with ModelDir set, the
// first run saves an artifact, the second serves it — spending zero substrate
// solves — and every table statistic except the timing is identical.
func TestModelDirCache(t *testing.T) {
	layout, maxLevel := core.Prepare(geom.RegularGrid(64, 64, 8, 8, 4), 4)
	c := Case{"cache-test", layout, maxLevel, 0}
	g := SyntheticG(c.Layout)
	defer func() { ModelDir = ""; Metrics = nil }()
	ModelDir = t.TempDir()
	Metrics = nil

	first, err := RunSparsify(c, g, core.LowRank, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(modelPath(c, core.LowRank)); err != nil {
		t.Fatalf("first run did not save an artifact: %v", err)
	}

	// The second run must not issue a single solve: observe through a
	// registry, which counts every black-box call the extraction makes.
	Metrics = obs.NewMetrics()
	second, err := RunSparsify(c, g, core.LowRank, 8)
	if err != nil {
		t.Fatal(err)
	}
	if n := Metrics.Event("solver/solves").Value(); n != 0 {
		t.Fatalf("cached run issued %d substrate solves, want 0", n)
	}

	first.ExtractSeconds, second.ExtractSeconds = 0, 0
	if first != second {
		t.Fatalf("cached stats differ from extracted stats:\n%+v\n%+v", first, second)
	}

	// Ablation runs must bypass the cache (their options differ from the
	// artifact's): the registry must now see real solves.
	lopt := lowrank.DefaultOptions()
	lopt.MaxRank = 3
	if _, err := RunSparsifyOpts(c, g, core.LowRank, 8, lopt); err != nil {
		t.Fatal(err)
	}
	if n := Metrics.Event("solver/solves").Value(); n == 0 {
		t.Fatal("ablation run served the default-option cache")
	}

	// A corrupt artifact falls back to extraction instead of failing.
	if err := os.WriteFile(modelPath(c, core.LowRank), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	third, err := RunSparsify(c, g, core.LowRank, 8)
	if err != nil {
		t.Fatal(err)
	}
	third.ExtractSeconds = 0
	if first != third {
		t.Fatalf("fallback extraction stats differ:\n%+v\n%+v", first, third)
	}
}

func TestSolverCountMatchesDense(t *testing.T) {
	// RunSparsify must drive the dense-backed black box, not the bem
	// solver: the solve counter must match a fresh extraction.
	c := Example1a(Small)
	g, err := ExactG(c)
	if err != nil {
		t.Fatal(err)
	}
	st, err := RunSparsify(c, g, core.LowRank, 8)
	if err != nil {
		t.Fatal(err)
	}
	counting := solver.NewCounting(solver.NewDense(g))
	if _, err := core.Extract(counting, c.Layout, core.Options{Method: core.LowRank, MaxLevel: c.MaxLevel, ThresholdFactor: 6}); err != nil {
		t.Fatal(err)
	}
	if st.Solves != counting.Solves {
		t.Fatalf("solve counts differ: %d vs %d", st.Solves, counting.Solves)
	}
}
