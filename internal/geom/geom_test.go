package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointDist(t *testing.T) {
	a := Point{0, 0}
	b := Point{3, 4}
	if d := a.Dist(b); math.Abs(d-5) > 1e-12 {
		t.Fatalf("Dist = %g, want 5", d)
	}
}

func TestPointArithmetic(t *testing.T) {
	a := Point{1, 2}
	b := Point{-3, 5}
	if got := a.Add(b); got != (Point{-2, 7}) {
		t.Fatalf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Point{4, -3}) {
		t.Fatalf("Sub = %v", got)
	}
	if got := a.Lerp(b, 0); got != a {
		t.Fatalf("Lerp t=0 = %v", got)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Fatalf("Lerp t=1 = %v", got)
	}
	mid := a.Lerp(b, 0.5)
	if math.Abs(mid.X+1) > 1e-12 || math.Abs(mid.Y-3.5) > 1e-12 {
		t.Fatalf("Lerp t=0.5 = %v", mid)
	}
}

func TestRectBasics(t *testing.T) {
	r := Square(100)
	if r.Width() != 100 || r.Height() != 100 || r.Area() != 10000 {
		t.Fatalf("Square(100) wrong dims: %+v", r)
	}
	if !r.Contains(Point{0, 0}) || !r.Contains(Point{100, 100}) || !r.Contains(Point{50, 50}) {
		t.Fatal("boundary/interior points should be contained")
	}
	if r.Contains(Point{-0.001, 50}) || r.Contains(Point{50, 100.001}) {
		t.Fatal("exterior points must not be contained")
	}
}

func TestRectClamp(t *testing.T) {
	r := Square(10)
	cases := []struct{ in, want Point }{
		{Point{-5, 5}, Point{0, 5}},
		{Point{5, 15}, Point{5, 10}},
		{Point{12, -3}, Point{10, 0}},
		{Point{3, 7}, Point{3, 7}},
	}
	for _, c := range cases {
		if got := r.Clamp(c.in); got != c.want {
			t.Fatalf("Clamp(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestGridZeroCellPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCells with cell 0 must panic")
		}
	}()
	NewCells(Square(1), 0, 1)
}

func TestExpectedDegreeRoundTrip(t *testing.T) {
	// RangeForDegree must invert ExpectedDegree.
	for _, n := range []int{20, 50, 100} {
		for _, d := range []float64{6, 18} {
			r := RangeForDegree(n, 10000, d)
			got := ExpectedDegree(n, 10000, r)
			if math.Abs(got-d) > 1e-9 {
				t.Fatalf("round trip n=%d d=%g: got %g", n, d, got)
			}
		}
	}
}

func TestExpectedDegreeEdgeCases(t *testing.T) {
	if ExpectedDegree(1, 100, 10) != 0 {
		t.Fatal("single node has degree 0")
	}
	if RangeForDegree(1, 100, 6) != 0 {
		t.Fatal("range undefined for single node should be 0")
	}
	if RangeForDegree(10, 100, 0) != 0 {
		t.Fatal("range for degree 0 should be 0")
	}
}

func TestQuickClampInside(t *testing.T) {
	r := Square(100)
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		return r.Contains(r.Clamp(Point{x, y}))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDistSymmetryAndTriangle(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int8) bool {
		a := Point{float64(ax), float64(ay)}
		b := Point{float64(bx), float64(by)}
		c := Point{float64(cx), float64(cy)}
		if math.Abs(a.Dist(b)-b.Dist(a)) > 1e-9 {
			return false
		}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPointString(t *testing.T) {
	p := Point{X: 3, Y: 4}
	if got := p.String(); got != "(3.000, 4.000)" {
		t.Fatalf("String = %q", got)
	}
}

// A tiny cell in huge bounds would need about 10¹⁶ cells; the layout
// grows the cell instead, keeping the count O(n) and the cell neighborhood
// of a point a superset of its range.
func TestGridWideBoundsCapsCells(t *testing.T) {
	bounds := Square(1e6)
	if c := NewCells(bounds, 0.01, 2); c.Cols()*c.Rows() > 4*2+64 {
		t.Fatalf("layout of %dx%d cells for 2 points", c.Cols(), c.Rows())
	}
	// The paper's scenarios keep cells the size of the range: n=20..1000
	// at d=6, the sparser of its two densities.
	for _, n := range []int{20, 100, 1000} {
		r := RangeForDegree(n, 1e4, 6)
		if c, want := NewCells(Square(100), r, n), int(math.Ceil(100/r))+1; c.Cols() != want || c.Rows() != want {
			t.Fatalf("n=%d: %dx%d cells, want %dx%d cells of the range", n, c.Cols(), c.Rows(), want, want)
		}
	}
	c := NewCells(bounds, 0.01, 2)
	ax, ay := c.Cell(Point{X: 5e5, Y: 5e5})
	if bx, by := c.Cell(Point{X: 5e5 + 0.005, Y: 5e5}); !adjacentCells(ax, ay, bx, by) {
		t.Fatalf("near pair in cells (%d,%d) and (%d,%d)", ax, ay, bx, by)
	}
	if fx, fy := c.Cell(Point{X: 1e6, Y: 1e6}); adjacentCells(ax, ay, fx, fy) {
		t.Fatalf("far pair in adjacent cells (%d,%d) and (%d,%d)", ax, ay, fx, fy)
	}
}

// adjacentCells reports whether two cells are equal or 8-neighbors.
func adjacentCells(ax, ay, bx, by int) bool {
	return max(ax-bx, bx-ax) <= 1 && max(ay-by, by-ay) <= 1
}

func TestGridClampsOutOfBoundsPoints(t *testing.T) {
	// Points on or outside the boundary must land in the edge cells, next
	// to the cells of the points near them inside.
	c := NewCells(Square(10), 5, 4)
	last := [2]int{c.Cols() - 1, c.Rows() - 1}
	for _, tc := range []struct {
		p    Point
		want [2]int
	}{
		{Point{X: 10, Y: 10}, last},  // on the far corner
		{Point{X: 12, Y: 1e9}, last}, // beyond it
		{Point{X: -1, Y: -1}, [2]int{0, 0}},
		{Point{X: math.NaN(), Y: math.Inf(-1)}, [2]int{0, 0}},
	} {
		if x, y := c.Cell(tc.p); [2]int{x, y} != tc.want {
			t.Fatalf("Cell(%v) = (%d,%d), want %v", tc.p, x, y, tc.want)
		}
	}
	if x, y := c.Cell(Point{X: 9.5, Y: 9.5}); !adjacentCells(x, y, last[0], last[1]) {
		t.Fatalf("point near the corner in cell (%d,%d), not next to %v", x, y, last)
	}
	if x, y := c.Cell(Point{X: 0.5, Y: 0.5}); !adjacentCells(x, y, 0, 0) {
		t.Fatalf("point near the origin in cell (%d,%d), not next to (0,0)", x, y)
	}
}
