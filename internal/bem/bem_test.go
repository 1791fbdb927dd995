package bem

import (
	"math"
	"strings"
	"testing"

	"subcouple/internal/dct"
	"subcouple/internal/geom"
	"subcouple/internal/metrics"
	"subcouple/internal/solver"
	"subcouple/internal/substrate"
)

func smallSetup(t *testing.T) (*substrate.Profile, *geom.Layout) {
	t.Helper()
	prof := substrate.Uniform(16, 8, 1, true)
	layout := geom.RegularGrid(16, 16, 4, 4, 2)
	return prof, layout
}

func extractG(t *testing.T, s solver.Solver) [][]float64 {
	t.Helper()
	n := s.N()
	g := make([][]float64, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		e[j] = 1
		col, err := s.Solve(e)
		if err != nil {
			t.Fatal(err)
		}
		e[j] = 0
		for i := 0; i < n; i++ {
			if g[i] == nil {
				g[i] = make([]float64, n)
			}
			g[i][j] = col[i]
		}
	}
	return g
}

func TestNewValidations(t *testing.T) {
	prof, layout := smallSetup(t)
	if _, err := New(prof, layout, 12); err == nil {
		t.Fatalf("expected power-of-two error")
	}
	floating := substrate.Uniform(16, 8, 1, false)
	if _, err := New(floating, layout, 16); err == nil {
		t.Fatalf("expected grounded-backplane error")
	}
	badProf := substrate.Uniform(32, 8, 1, true)
	if _, err := New(badProf, layout, 16); err == nil {
		t.Fatalf("expected dimension mismatch error")
	}
}

func TestPanelOperatorSymmetricPD(t *testing.T) {
	prof, layout := smallSetup(t)
	s, err := New(prof, layout, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Check A symmetry on the contact panels via random probes.
	m := s.NumPanels()
	if m != 16*4 {
		t.Fatalf("NumPanels = %d", m)
	}
	probe := func(i int) []float64 {
		q := make([]float64, m)
		q[i] = 1
		y := make([]float64, m)
		field := make([]float64, 16*16)
		s.applyAcc(dct.NewPlan(16, 16), q, y, field)
		return y
	}
	a0 := probe(0)
	a7 := probe(7)
	if math.Abs(a0[7]-a7[0]) > 1e-12*math.Abs(a0[0]) {
		t.Fatalf("A_cc not symmetric: %g vs %g", a0[7], a7[0])
	}
	if a0[0] <= 0 {
		t.Fatalf("A_cc diagonal not positive: %g", a0[0])
	}
}

// TestApplyAccDoesNotAllocate pins one CG iteration's operator apply at the
// extraction size (128×128 panels), through the solve's plan, to zero
// allocations, and then a whole PCG solve in a workspace under each
// preconditioner, its apply included.
func TestApplyAccDoesNotAllocate(t *testing.T) {
	prof := substrate.TwoLayer(128, 40, 1, true)
	layout := geom.RegularGrid(128, 128, 16, 16, 4)
	s, err := New(prof, layout, 128)
	if err != nil {
		t.Fatal(err)
	}
	plan := dct.NewPlan(128, 128)
	q := make([]float64, s.NumPanels())
	for i := range q {
		q[i] = float64(i%7) - 3
	}
	y := make([]float64, len(q))
	field := make([]float64, 128*128)
	if n := testing.AllocsPerRun(5, func() { s.applyAcc(plan, q, y, field) }); n != 0 {
		t.Fatalf("applyAcc: %v allocs, want 0", n)
	}
	for _, pc := range []Precond{PrecondNone, PrecondFastSolver, PrecondBlockJacobi} {
		s, err := New(prof, layout, 128)
		if err != nil {
			t.Fatal(err)
		}
		s.Precond = pc
		s.Tol = 1e-6
		if err := s.ensurePrecond(); err != nil {
			t.Fatal(err)
		}
		ws := s.newWorkspace()
		iters := 0
		solve := func() {
			copy(ws.r, q)
			clear(ws.q)
			its, _, err := s.iterate(ws)
			if err != nil {
				t.Fatal(err)
			}
			iters = its
		}
		if n := testing.AllocsPerRun(2, solve); n != 0 {
			t.Fatalf("precond %d: PCG solve of %d iterations made %v allocs, want 0", pc, iters, n)
		}
	}
}

// TestBlocksMatchOperatorColumns: every entry of every contact's
// block-Jacobi block equals the panel operator's own column entry, within
// 1e-13 of the column's diagonal. The alternating layout sits on a
// non-square surface, so the two panel directions differ; the split
// mixed-shapes layout has multi-panel blocks on rings and thin contacts.
func TestBlocksMatchOperatorColumns(t *testing.T) {
	rect := substrate.TwoLayer(64, 20, 1, true)
	rect.B = 32
	for _, c := range []struct {
		prof   *substrate.Profile
		layout *geom.Layout
		np     int
	}{
		{rect, geom.AlternatingGrid(64, 32, 8, 4, 2, 4), 64},
		{substrate.TwoLayer(128, 40, 1, true), geom.MixedShapes(128).SplitToGrid(4), 128},
	} {
		t.Run(c.layout.Name, func(t *testing.T) {
			s, err := New(c.prof, c.layout, c.np)
			if err != nil {
				t.Fatal(err)
			}
			k := s.kTable()
			plan := dct.NewPlan(c.np, c.np)
			field := make([]float64, c.np*c.np)
			largest, worst := 0, 0.0
			for ci, ps := range s.Pan.ContactPanels {
				a := s.block(k, ps)
				for y, q := range ps {
					clear(field)
					field[q] = 1
					s.applyOperator(plan, field)
					for x, p := range ps {
						d := math.Abs(a.At(x, y)-field[p]) / field[q]
						if d > 1e-13 {
							t.Fatalf("contact %d: block (%d,%d) = %.17g, operator %.17g (diagonal %g)",
								ci, x, y, a.At(x, y), field[p], field[q])
						}
						worst = max(worst, d)
					}
				}
				largest = max(largest, len(ps))
			}
			if largest < 4 {
				t.Fatalf("largest block has %d panels; want multi-panel blocks", largest)
			}
			t.Logf("%d contacts, largest block %d panels, worst entry off by %.2g of the diagonal",
				s.N(), largest, worst)
		})
	}
}

// kEntry is A(p,q) = ¼[K(|Δi|,|Δj|) + K(|Δi|,Σj) + K(Σi,|Δj|) + K(Σi,Σj)],
// read from the table k of an np-by-np panel grid (see precond.go).
func kEntry(k []float64, np, p, q int) float64 {
	n2 := 2 * np
	ip, jp, iq, jq := p/np, p%np, q/np, q%np
	di, si := abs(ip-iq), ip+iq+1
	dj, sj := abs(jp-jq), jp+jq+1
	return 0.25 * (k[di*n2+dj] + k[di*n2+sj] + k[si*n2+dj] + k[si*n2+sj])
}

// TestApplyAccMatchesKTable: applyAcc of sampled unit vectors, the solver's
// per-iteration operator, equals the K table's entry A(p,q) at every
// contact panel p, within 1e-13 of the column's diagonal. Example 3's
// layout leaves every fourth panel row and column empty; the split
// mixed-shapes layout has rings and thin contacts.
func TestApplyAccMatchesKTable(t *testing.T) {
	ex3 := geom.AlternatingGrid(64, 64, 16, 16, 1, 3)
	for _, c := range []struct {
		prof   *substrate.Profile
		layout *geom.Layout
		np     int
		empty  bool // some panel row and some panel column hold no contact
	}{
		{substrate.TwoLayer(64, 40, 1, true), ex3, 64, true},
		{substrate.TwoLayer(128, 40, 1, true), geom.MixedShapes(128).SplitToGrid(4), 128, false},
	} {
		t.Run(c.layout.Name, func(t *testing.T) {
			s, err := New(c.prof, c.layout, c.np)
			if err != nil {
				t.Fatal(err)
			}
			rows, cols := map[int]bool{}, map[int]bool{}
			for _, p := range s.panels {
				rows[p/c.np], cols[p%c.np] = true, true
			}
			if c.empty && (len(rows) == c.np || len(cols) == c.np) {
				t.Fatalf("%d of %d panel rows and %d columns hold contacts; want empty ones", len(rows), c.np, len(cols))
			}
			k := s.kTable()
			ws := s.newWorkspace()
			m := s.NumPanels()
			worst := 0.0
			for qi := 0; qi < m; qi += m/40 + 1 {
				clear(ws.p)
				ws.p[qi] = 1
				s.applyAcc(ws.plan, ws.p, ws.ap, ws.field)
				q := s.panels[qi]
				diag := kEntry(k, c.np, q, q)
				for x, p := range s.panels {
					want := kEntry(k, c.np, p, q)
					d := math.Abs(ws.ap[x]-want) / diag
					if !(d <= 1e-13) {
						t.Fatalf("column %d: entry at panel %d is %.17g, K table %.17g (diagonal %g)",
							q, p, ws.ap[x], want, diag)
					}
					worst = max(worst, d)
				}
			}
			t.Logf("%d panels, worst entry off by %.2g of the diagonal", m, worst)
		})
	}
}

// BenchmarkApplyAcc times one PCG iteration's operator apply at Example 3's
// geometry (1024 alternating contacts on 128×128 panels) in a reused
// workspace, as a solve runs it.
func BenchmarkApplyAcc(b *testing.B) {
	s, err := New(substrate.TwoLayer(128, 40, 1, true), geom.AlternatingGrid(128, 128, 32, 32, 1, 3), 128)
	if err != nil {
		b.Fatal(err)
	}
	ws := s.newWorkspace()
	for i := range ws.p {
		ws.p[i] = float64(i%7) - 3
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.applyAcc(ws.plan, ws.p, ws.ap, ws.field)
	}
}

// TestBlockFailureNamesContact: a block that is not positive definite fails
// the solve with an error that names the contact.
func TestBlockFailureNamesContact(t *testing.T) {
	prof, layout := smallSetup(t)
	s, err := New(prof, layout, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.lam {
		s.lam[i] = -s.lam[i]
	}
	_, err = s.Solve(make([]float64, s.N()))
	if err == nil || !strings.Contains(err.Error(), "contact 0 ") {
		t.Fatalf("got %v, want an error naming contact 0", err)
	}
	if _, err := s.SolveBatch([][]float64{make([]float64, s.N())}); err == nil {
		t.Fatalf("SolveBatch succeeded after the build failed")
	}
}

func TestConductanceMatrixProperties(t *testing.T) {
	prof, layout := smallSetup(t)
	s, err := New(prof, layout, 16)
	if err != nil {
		t.Fatal(err)
	}
	g := extractG(t, s)
	// Symmetry, positive diagonal, non-positive off-diagonals, column sums
	// (thesis §2.4), plus strict dominance from the grounded backplane.
	cols := func(j int) []float64 {
		c := make([]float64, len(g))
		for i := range g {
			c[i] = g[i][j]
		}
		return c
	}
	if err := metrics.CheckConductance(len(g), cols, false, 1e-6); err != nil {
		t.Fatal(err)
	}
	if err := metrics.CheckStrictDominance(len(g), cols); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceDecay(t *testing.T) {
	// Coupling to the nearest neighbor must exceed coupling to the farthest
	// contact (the basic physics the dense G encodes).
	prof, layout := smallSetup(t)
	s, err := New(prof, layout, 16)
	if err != nil {
		t.Fatal(err)
	}
	e := make([]float64, s.N())
	e[0] = 1 // corner contact (0,0); layout ordered i*4+j
	col, err := s.Solve(e)
	if err != nil {
		t.Fatal(err)
	}
	near := math.Abs(col[1]) // (0,1)
	far := math.Abs(col[15]) // (3,3)
	if near <= far {
		t.Fatalf("no distance decay: near %g vs far %g", near, far)
	}
}

func TestVoltageOffsetWithGroundplane(t *testing.T) {
	// With a grounded backplane, a uniform +1V offset on all contacts
	// pushes net current into the substrate: currents don't vanish.
	prof, layout := smallSetup(t)
	s, err := New(prof, layout, 16)
	if err != nil {
		t.Fatal(err)
	}
	ones := make([]float64, s.N())
	for i := range ones {
		ones[i] = 1
	}
	out, err := s.Solve(ones)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range out {
		total += v
	}
	if total <= 0 {
		t.Fatalf("net current %g should be positive with a groundplane", total)
	}
}

func TestIterationReporting(t *testing.T) {
	prof, layout := smallSetup(t)
	s, err := New(prof, layout, 16)
	if err != nil {
		t.Fatal(err)
	}
	if s.AvgIterations() != 0 {
		t.Fatalf("fresh solver has nonzero iteration average")
	}
	e := make([]float64, s.N())
	e[0] = 1
	if _, err := s.Solve(e); err != nil {
		t.Fatal(err)
	}
	if s.AvgIterations() <= 0 {
		t.Fatalf("iteration average not tracked")
	}
	s.ResetStats()
	if s.AvgIterations() != 0 {
		t.Fatalf("ResetStats failed")
	}
}

func TestSolveInputValidation(t *testing.T) {
	prof, layout := smallSetup(t)
	s, err := New(prof, layout, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve([]float64{1}); err == nil {
		t.Fatalf("expected length error")
	}
	// Zero voltages → zero currents, no iterations.
	out, err := s.Solve(make([]float64, s.N()))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out {
		if v != 0 {
			t.Fatalf("zero input gave nonzero output")
		}
	}
}

func TestShimProfileGlobalCoupling(t *testing.T) {
	// The resistive shim (floating-backplane surrogate) makes far coupling
	// relatively stronger than the plain grounded profile.
	layout := geom.RegularGrid(128, 128, 8, 8, 4)
	shim, err := New(substrate.TwoLayer(128, 40, 1, true), layout, 64)
	if err != nil {
		t.Fatal(err)
	}
	plain := substrate.TwoLayer(128, 40, 1, false)
	plain.Grounded = true
	plain.Layers = []substrate.Layer{{Thickness: 0.5, Sigma: 1}, {Thickness: 39.5, Sigma: 100}}
	ps, err := New(plain, layout, 64)
	if err != nil {
		t.Fatal(err)
	}
	e := make([]float64, layout.N())
	e[0] = 1
	colShim, err := shim.Solve(e)
	if err != nil {
		t.Fatal(err)
	}
	colPlain, err := ps.Solve(e)
	if err != nil {
		t.Fatal(err)
	}
	// Relative far-field coupling |G(n-1,0)|/G(0,0).
	rs := math.Abs(colShim[layout.N()-1]) / colShim[0]
	rp := math.Abs(colPlain[layout.N()-1]) / colPlain[0]
	if rs <= rp {
		t.Fatalf("shim does not increase global coupling: %g vs %g", rs, rp)
	}
}

func TestFastSolverPreconditionerNotPromising(t *testing.T) {
	// Thesis §2.3.1: the zero-pad-the-lifting preconditioner "is not
	// promising (the number of iterations isn't reduced much, if at all)".
	// Verify it converges to the same answer and gives no dramatic
	// iteration win.
	prof := substrate.TwoLayer(64, 20, 1, true)
	layout := geom.RegularGrid(64, 64, 8, 8, 2) // sparse coverage: most of the surface is non-contact
	plain, err := New(prof, layout, 64)
	if err != nil {
		t.Fatal(err)
	}
	plain.Precond = PrecondNone
	pre, err := New(prof, layout, 64)
	if err != nil {
		t.Fatal(err)
	}
	pre.Precond = PrecondFastSolver
	e := make([]float64, layout.N())
	e[0] = 1
	want, err := plain.Solve(e)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pre.Solve(e)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-5*math.Abs(want[0]) {
			t.Fatalf("preconditioned answer deviates at %d: %g vs %g", i, got[i], want[i])
		}
	}
	// "Not promising": no more than a 3x reduction (usually none at all).
	if pre.AvgIterations() < plain.AvgIterations()/3 {
		t.Fatalf("preconditioner unexpectedly effective: %g vs %g iters",
			pre.AvgIterations(), plain.AvgIterations())
	}
	t.Logf("iterations: plain %g, preconditioned %g (thesis: not reduced much, if at all)",
		plain.AvgIterations(), pre.AvgIterations())
}
