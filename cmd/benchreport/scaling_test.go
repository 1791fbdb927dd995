package main

import (
	"bytes"
	"strings"
	"testing"

	"subcouple/internal/core"
	"subcouple/internal/experiments"
)

// TestDiffBenchFailsOnDisappearedRow pins the missing-baseline gate: a
// configuration present in the old file but absent from the new one must be
// a regression (a silently dropped row is how a gate dies quietly), while
// across different cases it stays informational.
func TestDiffBenchFailsOnDisappearedRow(t *testing.T) {
	old := benchDoc("3-alternating", 256, 1.0, 120)
	trimmed := benchDoc("3-alternating", 256, 1.0, 120)
	trimmed.Benchmarks = trimmed.Benchmarks[:1] // ExtractParallel gone
	var out bytes.Buffer
	regs := diffBench(&out, old, trimmed, 0.15)
	if len(regs) != 1 || !strings.Contains(regs[0], "disappeared") {
		t.Fatalf("dropped row produced regressions %v, want one 'disappeared'\n%s", regs, out.String())
	}

	// Cross-case: the committed full file vs a -short run that (validly)
	// times fewer configurations must not fail.
	short := benchDoc("3-alternating-short", 64, 0.1, 40)
	short.Benchmarks = short.Benchmarks[:1]
	out.Reset()
	if regs := diffBench(&out, old, short, 0.15); len(regs) != 0 {
		t.Fatalf("cross-case dropped row flagged: %v", regs)
	}
	if !strings.Contains(out.String(), "not gated") {
		t.Fatalf("cross-case dropped row not reported informationally:\n%s", out.String())
	}
}

// scalingDoc builds a two-family scaling file with deterministic per-point
// numbers following solves = 50·log2(n) and nnz = 10·n·log2(n), the shapes
// the real harness produces.
func scalingDoc(maxContacts int) *scalingFile {
	doc := &scalingFile{Schema: scalingSchema, MaxContacts: maxContacts}
	for _, n := range []int{64, 256, 1024, 4096} {
		if n > maxContacts {
			break
		}
		log2 := 0
		for m := n; m > 1; m /= 2 {
			log2++
		}
		for _, method := range []string{"wavelet", "low-rank"} {
			doc.Points = append(doc.Points, experiments.ScalingPoint{
				Case: "regular", Family: "regular", Method: method, N: n,
				Solves: 50 * log2, GwNNZ: 10 * n * log2, GwtNNZ: 12 * n * log2,
				Seconds: float64(n) / 1000,
			})
		}
	}
	doc.Fits = fitScaling(doc.Points)
	return doc
}

func TestDiffScalingSelfComparisonClean(t *testing.T) {
	doc := scalingDoc(4096)
	var out bytes.Buffer
	if regs := diffScaling(&out, doc, doc, 0.15); len(regs) != 0 {
		t.Fatalf("self-comparison flagged: %v", regs)
	}
}

func TestDiffScalingFailsOnSolveAndNNZDrift(t *testing.T) {
	old := scalingDoc(4096)
	drift := scalingDoc(4096)
	drift.Points[0].Solves++
	drift.Points[1].GwNNZ += 7
	var out bytes.Buffer
	regs := diffScaling(&out, old, drift, 0.15)
	if len(regs) != 2 {
		t.Fatalf("solves+nnz drift produced %d regressions: %v", len(regs), regs)
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("drift not flagged in output:\n%s", out.String())
	}
}

// TestDiffScalingDroppedPoint pins the disappearance rule: losing a rung
// the new run claims to cover fails; rungs beyond its -max are legitimately
// absent (the -short CI gate diffs a 256-contact run against the committed
// full ladder).
func TestDiffScalingDroppedPoint(t *testing.T) {
	old := scalingDoc(4096)
	within := scalingDoc(4096)
	var kept []experiments.ScalingPoint
	for _, p := range within.Points {
		if p.N != 1024 { // drop a mid-ladder rung while still claiming max 4096
			kept = append(kept, p)
		}
	}
	within.Points = kept
	var out bytes.Buffer
	regs := diffScaling(&out, old, within, 0.15)
	if len(regs) < 2 || !strings.Contains(regs[0], "disappeared") {
		t.Fatalf("dropped in-budget rung produced %v", regs)
	}

	short := scalingDoc(256) // everything above 256 absent, but -max says so
	out.Reset()
	if regs := diffScaling(&out, old, short, 0.15); len(regs) != 0 {
		t.Fatalf("short run flagged against full baseline: %v", regs)
	}
	if !strings.Contains(out.String(), "not compared") {
		t.Fatalf("beyond-max rungs not reported informationally:\n%s", out.String())
	}
}

// TestDiffScalingExponentDrift pins the headline gate: a fitted solves
// exponent moving by more than tol fails when both sides fit ≥3 rungs, and
// two-point fits (the -short tier) are never gated on exponent.
func TestDiffScalingExponentDrift(t *testing.T) {
	old := scalingDoc(4096)
	bad := scalingDoc(4096)
	for i := range bad.Points {
		// Make solves grow linearly instead: the exponent jumps toward 1.
		bad.Points[i].Solves = bad.Points[i].N
	}
	bad.Fits = fitScaling(bad.Points)
	var out bytes.Buffer
	regs := diffScaling(&out, old, bad, 0.15)
	found := false
	for _, r := range regs {
		if strings.Contains(r, "exponent drifted") {
			found = true
		}
	}
	if !found {
		t.Fatalf("linear solve growth did not trip the exponent gate: %v", regs)
	}

	// Two-point fits: per-point solves differ → per-point regressions, but
	// no exponent regression.
	old2 := scalingDoc(256)
	bad2 := scalingDoc(256)
	for i := range bad2.Points {
		bad2.Points[i].Solves = bad2.Points[i].N
	}
	bad2.Fits = fitScaling(bad2.Points)
	out.Reset()
	for _, r := range diffScaling(&out, old2, bad2, 0.15) {
		if strings.Contains(r, "exponent drifted") {
			t.Fatalf("two-point fit gated on exponent: %v", r)
		}
	}
}

// TestScalingRunMatchesCommitted regenerates the smallest ladder rung live
// and diffs it against the committed BENCH_scaling.json: the deterministic
// columns (solves, nnz) must match the committed numbers bit for bit, which
// is exactly the cross-machine CI gate. A mismatch means the algorithm
// changed without regenerating the baseline.
func TestScalingRunMatchesCommitted(t *testing.T) {
	committed, err := loadScaling("../../BENCH_scaling.json")
	if err != nil {
		t.Fatalf("committed BENCH_scaling.json: %v", err)
	}
	fresh := &scalingFile{Schema: scalingSchema, MaxContacts: 64}
	for _, sc := range experiments.ScalingLadder(64) {
		g := experiments.SyntheticSolver(sc.Case)
		for _, m := range []core.Method{core.Wavelet, core.LowRank} {
			p, err := experiments.RunScalingPoint(sc, g, m)
			if err != nil {
				t.Fatal(err)
			}
			fresh.Points = append(fresh.Points, p)
		}
	}
	fresh.Fits = fitScaling(fresh.Points)
	var out bytes.Buffer
	if regs := diffScaling(&out, committed, fresh, 0.15); len(regs) != 0 {
		t.Fatalf("fresh 64-contact rung diverges from committed baseline:\n  %s\n%s",
			strings.Join(regs, "\n  "), out.String())
	}
}

// TestCommittedScalingFileLoads keeps the committed scaling baseline
// loadable and shaped as the ISSUE requires: at least 3 ladder sizes per
// method per grid family, fitted exponents over ≥3 rungs, and a populated
// peak-memory column on every point.
func TestCommittedScalingFileLoads(t *testing.T) {
	doc, err := loadScaling("../../BENCH_scaling.json")
	if err != nil {
		t.Fatalf("committed BENCH_scaling.json: %v", err)
	}
	sizes := map[string]map[int]bool{}
	for _, p := range doc.Points {
		if p.PeakHeapBytes == 0 {
			t.Errorf("%s/%s n=%d: peak_heap_bytes not populated", p.Family, p.Method, p.N)
		}
		if p.Solves <= 0 || p.GwNNZ <= 0 {
			t.Errorf("%s/%s n=%d: empty deterministic columns (%d solves, %d nnz)",
				p.Family, p.Method, p.N, p.Solves, p.GwNNZ)
		}
		k := p.Family + "/" + p.Method
		if sizes[k] == nil {
			sizes[k] = map[int]bool{}
		}
		sizes[k][p.N] = true
	}
	for _, fam := range []string{"regular", "alternating"} {
		for _, m := range []string{"wavelet", "low-rank"} {
			if got := len(sizes[fam+"/"+m]); got < 3 {
				t.Errorf("family %s method %s: %d ladder sizes, want >= 3", fam, m, got)
			}
		}
	}
	fitted := 0
	for _, f := range doc.Fits {
		if f.Metric == "solves" && f.Points >= 3 {
			fitted++
			if f.Exponent <= 0 || f.Exponent >= 1 {
				t.Errorf("fit %s/%s solves exponent %.3f outside (0,1): the sublinear story broke",
					f.Family, f.Method, f.Exponent)
			}
		}
	}
	if fitted < 4 {
		t.Errorf("%d solves fits with >= 3 points, want 4 (2 families x 2 methods)", fitted)
	}
	var out bytes.Buffer
	if regs := diffScaling(&out, doc, doc, 0.15); len(regs) != 0 {
		t.Fatalf("committed scaling baseline regresses against itself: %v", regs)
	}
}
