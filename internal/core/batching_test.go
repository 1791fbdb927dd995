package core_test

import (
	"testing"

	"subcouple/internal/core"
	"subcouple/internal/experiments"
	"subcouple/internal/obs"
	"subcouple/internal/solver"
)

// TestOneSolveBatchPerPhase pins how an extraction reaches the black box:
// each phase's combine-solves schedule goes out as one SolveBatch, and an
// empty phase makes no call. On Example 3 (Small) the low-rank method
// answers its 273 solves in 6 batches, the sample and row-basis responses
// of levels 2–4, because no finest square has a W column; the wavelet
// method answers its 186 in one.
func TestOneSolveBatchPerPhase(t *testing.T) {
	c := experiments.Example3(experiments.Small)
	g := experiments.SyntheticG(c.Layout)
	for _, tc := range []struct {
		method          core.Method
		solves, batches int64
	}{
		{core.LowRank, 273, 6},
		{core.Wavelet, 186, 1},
	} {
		ms := obs.NewMetrics()
		res, err := core.Extract(solver.NewDense(g), c.Layout, core.Options{
			Method: tc.method, MaxLevel: c.MaxLevel, Workers: 2, Metrics: ms,
		})
		if err != nil {
			t.Fatalf("%v: %v", tc.method, err)
		}
		snap, _ := ms.Report()
		got := snap.Counters
		if int64(res.Solves) != tc.solves || got["solver/solves"] != tc.solves || got["solver/batches"] != tc.batches {
			t.Errorf("%v: %d solves (counter %d) in %d batches, want %d in %d",
				tc.method, res.Solves, got["solver/solves"], got["solver/batches"], tc.solves, tc.batches)
		}
		if tc.method == core.LowRank {
			if w, ok := got["lowrank/solves_w"]; !ok || w != 0 {
				t.Errorf("lowrank/solves_w = %d (recorded %v), want a recorded 0", w, ok)
			}
		}
	}
}
