// Package quadtree implements the multilevel hierarchy of squares on the
// substrate top surface (thesis §3.2–3.3): at level l the surface is split
// into 2^l × 2^l squares; contacts are assigned to the finest-level square
// containing them; and each square knows its local squares L_s (itself and
// its neighbors), its interactive squares I_s (same-level squares at
// distance ≥ 2 whose parents are neighbors, Fig 4-4), and P_s = I_s ∪ L_s.
package quadtree

import (
	"fmt"
	"slices"

	"subcouple/internal/geom"
)

// Square is one square of the hierarchy.
type Square struct {
	Level, I, J int   // level and grid position, 0 <= I,J < 2^Level
	Contacts    []int // indices of contacts inside this square
	ID          int   // index within its level's row-major slice
}

// Tree is the full multilevel hierarchy for a layout.
type Tree struct {
	MaxLevel int
	Side     float64 // surface side length (surface assumed square)
	Layout   *geom.Layout
	levels   [][]*Square // levels[l] has 4^l squares, row-major by (I, J)
}

// Build constructs the tree for a layout whose surface is square, with
// maxLevel levels of refinement. Every contact must lie entirely within one
// finest-level square (run geom.Layout.SplitToGrid first if needed).
func Build(l *geom.Layout, maxLevel int) (*Tree, error) {
	if l.A != l.B {
		return nil, fmt.Errorf("quadtree: surface must be square, got %g x %g", l.A, l.B)
	}
	if maxLevel < 2 {
		return nil, fmt.Errorf("quadtree: maxLevel must be >= 2, got %d", maxLevel)
	}
	t := &Tree{MaxLevel: maxLevel, Side: l.A, Layout: l}
	t.levels = make([][]*Square, maxLevel+1)
	for lev := 0; lev <= maxLevel; lev++ {
		n := 1 << lev
		t.levels[lev] = make([]*Square, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				t.levels[lev][i*n+j] = &Square{Level: lev, I: i, J: j, ID: i*n + j}
			}
		}
	}
	// Assign contacts bottom-up: finest square from the contact centroid,
	// then propagate to ancestors.
	cell := t.Side / float64(int(1)<<maxLevel)
	for ci, c := range l.Contacts {
		i := int(c.CenterX() / cell)
		j := int(c.CenterY() / cell)
		n := 1 << maxLevel
		if i < 0 || j < 0 || i >= n || j >= n {
			return nil, fmt.Errorf("quadtree: contact %d outside surface", ci)
		}
		// Verify containment in the finest square (allow boundary contact).
		x0, y0 := float64(i)*cell, float64(j)*cell
		const eps = 1e-9
		if c.X0 < x0-eps || c.Y0 < y0-eps || c.X1 > x0+cell+eps || c.Y1 > y0+cell+eps {
			return nil, fmt.Errorf("quadtree: contact %d crosses finest-square boundary; split the layout first", ci)
		}
		for lev := maxLevel; lev >= 0; lev-- {
			sq := t.levels[lev][(i>>(maxLevel-lev))*(1<<lev)+(j>>(maxLevel-lev))]
			sq.Contacts = append(sq.Contacts, ci)
		}
	}
	return t, nil
}

// ChooseMaxLevel returns the smallest level >= 2 such that splitting the
// layout at that level's square size yields at most maxPerSquare contact
// pieces per finest square, capped at levelCap.
func ChooseMaxLevel(l *geom.Layout, maxPerSquare, levelCap int) int {
	for lev := 2; lev < levelCap; lev++ {
		cell := l.A / float64(int(1)<<lev)
		split := l.SplitToGrid(cell)
		counts := map[[2]int]int{}
		ok := true
		for _, c := range split.Contacts {
			key := [2]int{int(c.CenterX() / cell), int(c.CenterY() / cell)}
			counts[key]++
			if counts[key] > maxPerSquare {
				ok = false
				break
			}
		}
		if ok {
			return lev
		}
	}
	return levelCap
}

// At returns the square at (level, i, j).
func (t *Tree) At(level, i, j int) *Square {
	n := 1 << level
	return t.levels[level][i*n+j]
}

// SquaresAt returns all squares at a level, row-major.
func (t *Tree) SquaresAt(level int) []*Square { return t.levels[level] }

// Parent returns the parent square (nil at level 0).
func (t *Tree) Parent(s *Square) *Square {
	if s.Level == 0 {
		return nil
	}
	return t.At(s.Level-1, s.I/2, s.J/2)
}

// Children returns the four children (nil slice at the finest level), in
// quadrant order: (2i,2j), (2i,2j+1), (2i+1,2j), (2i+1,2j+1).
func (t *Tree) Children(s *Square) []*Square {
	if s.Level == t.MaxLevel {
		return nil
	}
	return []*Square{
		t.At(s.Level+1, 2*s.I, 2*s.J),
		t.At(s.Level+1, 2*s.I, 2*s.J+1),
		t.At(s.Level+1, 2*s.I+1, 2*s.J),
		t.At(s.Level+1, 2*s.I+1, 2*s.J+1),
	}
}

// chebDist returns the Chebyshev distance between two same-level squares.
func chebDist(a, b *Square) int {
	di, dj := a.I-b.I, a.J-b.J
	if di < 0 {
		di = -di
	}
	if dj < 0 {
		dj = -dj
	}
	if di > dj {
		return di
	}
	return dj
}

// Local returns L_s: s itself and its same-level neighbors (Chebyshev
// distance <= 1).
func (t *Tree) Local(s *Square) []*Square {
	var out []*Square
	n := 1 << s.Level
	for di := -1; di <= 1; di++ {
		for dj := -1; dj <= 1; dj++ {
			i, j := s.I+di, s.J+dj
			if i >= 0 && j >= 0 && i < n && j < n {
				out = append(out, t.At(s.Level, i, j))
			}
		}
	}
	return out
}

// Interactive returns I_s: same-level squares separated from s by at least
// one square whose parent squares are the same as or neighbors of s's
// parent (Fig 4-4). At levels 0 and 1 the interactive set is empty.
func (t *Tree) Interactive(s *Square) []*Square {
	if s.Level < 2 {
		return nil
	}
	p := t.Parent(s)
	var out []*Square
	n := 1 << s.Level
	// Children of parent's 3x3 neighborhood span indices
	// [2(pI-1), 2(pI+1)+1] in each axis.
	for i := 2 * (p.I - 1); i <= 2*(p.I+1)+1; i++ {
		if i < 0 || i >= n {
			continue
		}
		for j := 2 * (p.J - 1); j <= 2*(p.J+1)+1; j++ {
			if j < 0 || j >= n {
				continue
			}
			q := t.At(s.Level, i, j)
			if chebDist(s, q) >= 2 {
				out = append(out, q)
			}
		}
	}
	return out
}

// Proximity returns P_s = I_s ∪ L_s, which equals the set of children of
// L_parent(s) (thesis §4.3.3).
func (t *Tree) Proximity(s *Square) []*Square {
	out := t.Local(s)
	out = append(out, t.Interactive(s)...)
	return out
}

// LocalColumns returns, sorted, the entries table[q.Level][q.ID] of every
// square q in L_s and of all of q's descendants. With table listing the
// basis columns each square contributes, these are the columns whose
// ancestor at s's level is local to s: the targets the locality pattern
// keeps for s's own columns (thesis §3.5 and §4.4.1).
func (t *Tree) LocalColumns(s *Square, table [][][]int) []int {
	var out []int
	var rec func(q *Square)
	rec = func(q *Square) {
		out = append(out, table[q.Level][q.ID]...)
		for _, c := range t.Children(q) {
			rec(c)
		}
	}
	for _, q := range t.Local(s) {
		rec(q)
	}
	slices.Sort(out)
	return out
}

// ContactsOf returns the concatenated contact indices of a set of squares.
func ContactsOf(squares []*Square) []int {
	var out []int
	for _, q := range squares {
		out = append(out, q.Contacts...)
	}
	return out
}

// Center returns the centroid of a square.
func (t *Tree) Center(s *Square) (x, y float64) {
	side := t.Side / float64(int(1)<<s.Level)
	return (float64(s.I) + 0.5) * side, (float64(s.J) + 0.5) * side
}

// SideAt returns the side length of squares at a level.
func (t *Tree) SideAt(level int) float64 { return t.Side / float64(int(1)<<level) }

// Mod3Class returns the combine-solves class (i mod 3, j mod 3) of a square
// (thesis §3.5, Fig 3-5): squares in the same class on the same level are at
// least three squares apart, so their basis-vector responses can be
// extracted from a single black-box solve.
func Mod3Class(s *Square) (int, int) { return s.I % 3, s.J % 3 }

// QuadrantOrder returns the finest-level squares of the tree in
// quadrant-hierarchical order (thesis §3.7.1): top-left quadrant first, then
// top-right, bottom-left, bottom-right, recursively. "Top" is taken as
// smaller I (x index) and "left" as smaller J.
func (t *Tree) QuadrantOrder(level int) []*Square {
	var out []*Square
	var rec func(lev, i, j int)
	rec = func(lev, i, j int) {
		if lev == level {
			out = append(out, t.At(lev, i, j))
			return
		}
		rec(lev+1, 2*i, 2*j)
		rec(lev+1, 2*i, 2*j+1)
		rec(lev+1, 2*i+1, 2*j)
		rec(lev+1, 2*i+1, 2*j+1)
	}
	rec(0, 0, 0)
	return out
}
