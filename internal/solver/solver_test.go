package solver

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"subcouple/internal/la"
)

func testG() *la.Dense {
	return la.NewDenseFrom(3, 3, []float64{
		2, -0.5, -0.3,
		-0.5, 1.8, -0.4,
		-0.3, -0.4, 2.2,
	})
}

func TestDenseSolver(t *testing.T) {
	g := testG()
	s := NewDense(g)
	if s.N() != 3 {
		t.Fatalf("N = %d", s.N())
	}
	out, err := s.Solve([]float64{1, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if out[i] != g.At(i, 0) {
			t.Fatalf("Solve(e0)[%d] = %g", i, out[i])
		}
	}
	if _, err := s.Solve([]float64{1, 2}); err == nil {
		t.Fatalf("expected length error")
	}
}

func TestCounting(t *testing.T) {
	c := NewCounting(NewDense(testG()))
	for i := 0; i < 5; i++ {
		if _, err := c.Solve([]float64{1, 1, 1}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Solves != 5 {
		t.Fatalf("Solves = %d", c.Solves)
	}
	c.Reset()
	if c.Solves != 0 {
		t.Fatalf("Reset failed")
	}
}

func TestExtractDense(t *testing.T) {
	g := testG()
	c := NewCounting(NewDense(g))
	got, err := ExtractDense(c)
	if err != nil {
		t.Fatal(err)
	}
	if c.Solves != 3 {
		t.Fatalf("naive extraction used %d solves, want n=3", c.Solves)
	}
	for i := range g.Data {
		if math.Abs(got.Data[i]-g.Data[i]) > 1e-15 {
			t.Fatalf("ExtractDense mismatch at %d", i)
		}
	}
}

func TestExtractColumns(t *testing.T) {
	g := testG()
	s := NewDense(g)
	got, err := ExtractColumns(s, []int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != 3 || got.Cols != 2 {
		t.Fatalf("shape %dx%d", got.Rows, got.Cols)
	}
	for i := 0; i < 3; i++ {
		if got.At(i, 0) != g.At(i, 2) || got.At(i, 1) != g.At(i, 0) {
			t.Fatalf("column extraction wrong at row %d", i)
		}
	}
	if _, err := ExtractColumns(s, []int{7}); err == nil {
		t.Fatalf("expected range error")
	}
}

// poisoned answers like Dense, except that the answer to any voltage
// vector driving contact 2 carries bad at contact 1.
type poisoned struct {
	*Dense
	bad float64
}

func (p poisoned) Solve(v []float64) ([]float64, error) {
	r, err := p.Dense.Solve(v)
	if err == nil && v[2] != 0 {
		r[1] = p.bad
	}
	return r, err
}

// TestCountingRejectsNonFinite drives a poisoned answer through every path
// a Counting sees: its own Solve and SolveBatch, below a Parallel adapter,
// and unwrapped by one. Each must fail with the poisoned solve's number.
func TestCountingRejectsNonFinite(t *testing.T) {
	e := func(j int) []float64 {
		v := make([]float64, 3)
		v[j] = 1
		return v
	}
	batch := [][]float64{e(0), e(1), e(2), e(0)}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bb := poisoned{NewDense(testG()), bad}
		for _, tc := range []struct {
			name  string
			solve int // the poisoned solve's number
			run   func() error
		}{
			{"Solve", 2, func() error {
				c := NewCounting(bb)
				if _, err := c.Solve(e(0)); err != nil {
					return err
				}
				_, err := c.Solve(e(2))
				return err
			}},
			{"SolveBatch", 3, func() error {
				_, err := NewCounting(bb).SolveBatch(batch)
				return err
			}},
			{"Counting(Parallel)", 3, func() error {
				_, err := NewCounting(Parallel(bb, 4)).SolveBatch(batch)
				return err
			}},
			{"Parallel(Counting)", 5, func() error {
				c := NewCounting(bb)
				if _, err := c.Solve(e(0)); err != nil {
					return err
				}
				p := Parallel(c, 4)
				if _, err := p.SolveBatch(batch[:1]); err != nil {
					return err
				}
				_, err := p.SolveBatch(batch)
				return err
			}},
		} {
			err := tc.run()
			want := fmt.Sprintf("black-box solve %d returned %v for contact 1", tc.solve, bad)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s with %v: error %v, want one containing %q", tc.name, bad, err, want)
			}
		}
	}
}
