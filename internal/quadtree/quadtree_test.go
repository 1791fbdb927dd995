package quadtree

import (
	"slices"
	"testing"

	"subcouple/internal/geom"
)

func buildTestTree(t *testing.T, maxLevel int) *Tree {
	t.Helper()
	l := geom.RegularGrid(64, 64, 16, 16, 2)
	tree, err := Build(l, maxLevel)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestBuildAssignsAllContacts(t *testing.T) {
	tree := buildTestTree(t, 4)
	for lev := 0; lev <= 4; lev++ {
		total := 0
		for _, s := range tree.SquaresAt(lev) {
			total += len(s.Contacts)
		}
		if total != 256 {
			t.Fatalf("level %d holds %d contacts, want 256", lev, total)
		}
	}
	// Finest level: one contact per square for this layout.
	for _, s := range tree.SquaresAt(4) {
		if len(s.Contacts) != 1 {
			t.Fatalf("finest square (%d,%d) has %d contacts", s.I, s.J, len(s.Contacts))
		}
	}
}

func TestBuildRejectsCrossingContacts(t *testing.T) {
	l := &geom.Layout{A: 16, B: 16}
	l.Contacts = append(l.Contacts, geom.Contact{Rect: geom.Rect{X0: 3, Y0: 3, X1: 6, Y1: 6}})
	if _, err := Build(l, 3); err == nil {
		t.Fatalf("expected error for contact crossing finest square boundary")
	}
}

func TestParentChildRelations(t *testing.T) {
	tree := buildTestTree(t, 4)
	for lev := 0; lev < 4; lev++ {
		for _, s := range tree.SquaresAt(lev) {
			for _, c := range tree.Children(s) {
				if tree.Parent(c) != s {
					t.Fatalf("parent/child mismatch at level %d", lev)
				}
			}
		}
	}
	if tree.Parent(tree.At(0, 0, 0)) != nil {
		t.Fatalf("root has a parent")
	}
	if tree.Children(tree.At(4, 0, 0)) != nil {
		t.Fatalf("finest square has children")
	}
}

func TestLocalAndInteractive(t *testing.T) {
	tree := buildTestTree(t, 4)
	// Interior square: 9 local, up to 27 interactive.
	s := tree.At(3, 4, 4)
	if n := len(tree.Local(s)); n != 9 {
		t.Fatalf("interior local = %d want 9", n)
	}
	is := tree.Interactive(s)
	if len(is) > 27 || len(is) == 0 {
		t.Fatalf("interactive size %d out of range", len(is))
	}
	for _, q := range is {
		if chebDist(s, q) < 2 {
			t.Fatalf("interactive square too close: (%d,%d)", q.I, q.J)
		}
		if chebDist(tree.Parent(s), tree.Parent(q)) > 1 {
			t.Fatalf("interactive square's parent not a neighbor")
		}
	}
	// Corner square has 4 local squares.
	c := tree.At(3, 0, 0)
	if n := len(tree.Local(c)); n != 4 {
		t.Fatalf("corner local = %d want 4", n)
	}
	// Levels 0 and 1 have empty interactive sets.
	if tree.Interactive(tree.At(1, 0, 0)) != nil {
		t.Fatalf("level-1 interactive must be empty")
	}
}

func TestInteractiveSymmetry(t *testing.T) {
	tree := buildTestTree(t, 4)
	for lev := 2; lev <= 4; lev++ {
		for _, s := range tree.SquaresAt(lev) {
			for _, d := range tree.Interactive(s) {
				found := false
				for _, back := range tree.Interactive(d) {
					if back == s {
						found = true
					}
				}
				if !found {
					t.Fatalf("interactive not symmetric: (%d,%d)->(%d,%d) at level %d", s.I, s.J, d.I, d.J, lev)
				}
			}
		}
	}
}

func TestProximityEqualsChildrenOfParentLocal(t *testing.T) {
	tree := buildTestTree(t, 4)
	for lev := 3; lev <= 4; lev++ {
		for _, s := range tree.SquaresAt(lev) {
			want := map[*Square]bool{}
			for _, pl := range tree.Local(tree.Parent(s)) {
				for _, c := range tree.Children(pl) {
					want[c] = true
				}
			}
			got := tree.Proximity(s)
			if len(got) != len(want) {
				t.Fatalf("level %d square (%d,%d): |P_s|=%d want %d", lev, s.I, s.J, len(got), len(want))
			}
			for _, q := range got {
				if !want[q] {
					t.Fatalf("P_s contains unexpected square (%d,%d)", q.I, q.J)
				}
			}
		}
	}
}

func TestProximityCoversAllAtLevel2(t *testing.T) {
	tree := buildTestTree(t, 4)
	for _, s := range tree.SquaresAt(2) {
		if len(tree.Proximity(s)) != 16 {
			t.Fatalf("level-2 P_s must cover all 16 squares, got %d", len(tree.Proximity(s)))
		}
	}
}

func TestMod3ClassSeparation(t *testing.T) {
	tree := buildTestTree(t, 4)
	squares := tree.SquaresAt(4)
	for a := range squares {
		for b := range squares {
			if a == b {
				continue
			}
			ai, aj := Mod3Class(squares[a])
			bi, bj := Mod3Class(squares[b])
			if ai == bi && aj == bj && chebDist(squares[a], squares[b]) < 3 {
				t.Fatalf("same class squares closer than 3")
			}
		}
	}
}

func TestQuadrantOrder(t *testing.T) {
	tree := buildTestTree(t, 4)
	ord := tree.QuadrantOrder(2)
	if len(ord) != 16 {
		t.Fatalf("order length %d", len(ord))
	}
	seen := map[int]bool{}
	for _, s := range ord {
		if seen[s.ID] {
			t.Fatalf("duplicate square in quadrant order")
		}
		seen[s.ID] = true
	}
	// First four entries are the top-left quadrant of the 4x4 grid.
	for _, s := range ord[:4] {
		if s.I >= 2 || s.J >= 2 {
			t.Fatalf("quadrant order wrong: (%d,%d) in first block", s.I, s.J)
		}
	}
}

func TestCenterAndSide(t *testing.T) {
	tree := buildTestTree(t, 4)
	x, y := tree.Center(tree.At(2, 1, 2))
	if x != 24 || y != 40 {
		t.Fatalf("center = (%g,%g)", x, y)
	}
	if tree.SideAt(3) != 8 {
		t.Fatalf("side = %g", tree.SideAt(3))
	}
}

func TestChooseMaxLevel(t *testing.T) {
	l := geom.RegularGrid(64, 64, 16, 16, 2)
	lev := ChooseMaxLevel(l, 1, 8)
	if lev != 4 {
		t.Fatalf("ChooseMaxLevel = %d want 4", lev)
	}
	lev = ChooseMaxLevel(l, 4, 8)
	if lev != 3 {
		t.Fatalf("ChooseMaxLevel(4 per square) = %d want 3", lev)
	}
}

func TestContactsOf(t *testing.T) {
	tree := buildTestTree(t, 4)
	all := ContactsOf(tree.SquaresAt(2))
	if len(all) != 256 {
		t.Fatalf("ContactsOf all level-2 squares = %d", len(all))
	}
}

// TestLocalColumnsMatchesBruteForce checks LocalColumns against a direct
// enumeration: every square at s's level or finer whose ancestor at s's
// level lies within one square of s, in both directions.
func TestLocalColumnsMatchesBruteForce(t *testing.T) {
	tree := buildTestTree(t, 3)
	// Give each square a distinct, sometimes empty, list of column ids.
	table := make([][][]int, tree.MaxLevel+1)
	next := 0
	for lev := 0; lev <= tree.MaxLevel; lev++ {
		table[lev] = make([][]int, len(tree.SquaresAt(lev)))
		for _, q := range tree.SquaresAt(lev) {
			for k := 0; k < (q.ID+lev)%3; k++ {
				table[lev][q.ID] = append(table[lev][q.ID], next)
				next++
			}
		}
	}
	for lev := 0; lev <= tree.MaxLevel; lev++ {
		for _, s := range tree.SquaresAt(lev) {
			var want []int
			for l := lev; l <= tree.MaxLevel; l++ {
				shift := uint(l - lev)
				for _, q := range tree.SquaresAt(l) {
					di, dj := q.I>>shift-s.I, q.J>>shift-s.J
					if di >= -1 && di <= 1 && dj >= -1 && dj <= 1 {
						want = append(want, table[l][q.ID]...)
					}
				}
			}
			slices.Sort(want)
			if got := tree.LocalColumns(s, table); !slices.Equal(got, want) {
				t.Fatalf("LocalColumns(level %d, %d,%d) = %v, want %v", lev, s.I, s.J, got, want)
			}
		}
	}
}
