package geom

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"clustercast/internal/rng"
)

func TestPointDist(t *testing.T) {
	a := Point{0, 0}
	b := Point{3, 4}
	if d := a.Dist(b); math.Abs(d-5) > 1e-12 {
		t.Fatalf("Dist = %g, want 5", d)
	}
	if d2 := a.Dist2(b); math.Abs(d2-25) > 1e-12 {
		t.Fatalf("Dist2 = %g, want 25", d2)
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
	if got := a.Scale(2); got != (Point{2, 4}) {
		t.Fatalf("Scale = %v", got)
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
	if c := r.Center(); c != (Point{50, 50}) {
		t.Fatalf("Center = %v", c)
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

// bruteWithin is the O(n²) oracle for grid range queries.
func bruteWithin(pts []Point, id int, radius float64) []int {
	var out []int
	for j, q := range pts {
		if j != id && pts[id].Dist(q) <= radius {
			out = append(out, j)
		}
	}
	return out
}

func TestGridMatchesBruteForce(t *testing.T) {
	r := rng.New(7)
	bounds := Square(100)
	const radius = 18.0
	g := NewGrid(bounds, radius, 300)
	var pts []Point
	for i := 0; i < 300; i++ {
		p := Point{r.Range(0, 100), r.Range(0, 100)}
		pts = append(pts, p)
		g.Insert(p)
	}
	for id := 0; id < len(pts); id++ {
		got := g.Within(id, radius, nil)
		want := bruteWithin(pts, id, radius)
		sort.Ints(got)
		sort.Ints(want)
		if len(got) != len(want) {
			t.Fatalf("node %d: grid found %d neighbors, brute force %d", id, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("node %d: neighbor mismatch %v vs %v", id, got, want)
			}
		}
	}
}

func TestGridQueryRadiusGuard(t *testing.T) {
	g := NewGrid(Square(100), 10, 100)
	g.Insert(Point{5, 5})
	defer func() {
		if recover() == nil {
			t.Fatal("Within with radius > cell must panic")
		}
	}()
	g.Within(0, 20, nil)
}

func TestGridZeroCellPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGrid with cell 0 must panic")
		}
	}()
	NewGrid(Square(1), 0, 1)
}

func TestGridMove(t *testing.T) {
	g := NewGrid(Square(100), 10, 2)
	a := g.Insert(Point{5, 5})
	b := g.Insert(Point{8, 5})
	if n := g.Within(a, 10, nil); len(n) != 1 || n[0] != b {
		t.Fatalf("before move: neighbors of a = %v", n)
	}
	g.Move(b, Point{95, 95})
	if n := g.Within(a, 10, nil); len(n) != 0 {
		t.Fatalf("after move away: neighbors of a = %v", n)
	}
	g.Move(b, Point{6, 6})
	if n := g.Within(a, 10, nil); len(n) != 1 || n[0] != b {
		t.Fatalf("after move back: neighbors of a = %v", n)
	}
	if got := g.Point(b); got != (Point{6, 6}) {
		t.Fatalf("Point(b) = %v after move", got)
	}
}

func TestGridMoveMatchesBruteForce(t *testing.T) {
	r := rng.New(13)
	const radius = 15.0
	g := NewGrid(Square(100), radius, 120)
	var pts []Point
	for i := 0; i < 120; i++ {
		p := Point{r.Range(0, 100), r.Range(0, 100)}
		pts = append(pts, p)
		g.Insert(p)
	}
	// Random walks, re-verifying against the oracle each step.
	for step := 0; step < 20; step++ {
		id := r.Intn(len(pts))
		to := Point{r.Range(0, 100), r.Range(0, 100)}
		pts[id] = to
		g.Move(id, to)
		got := g.Within(id, radius, nil)
		want := bruteWithin(pts, id, radius)
		sort.Ints(got)
		sort.Ints(want)
		if len(got) != len(want) {
			t.Fatalf("step %d: grid %d vs brute %d neighbors", step, len(got), len(want))
		}
	}
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

func BenchmarkGridWithin(b *testing.B) {
	r := rng.New(1)
	const radius = 15.0
	g := NewGrid(Square(100), radius, 1000)
	for i := 0; i < 1000; i++ {
		g.Insert(Point{r.Range(0, 100), r.Range(0, 100)})
	}
	buf := make([]int, 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.Within(i%1000, radius, buf[:0])
	}
}

func TestPointStringAndNorm(t *testing.T) {
	p := Point{X: 3, Y: 4}
	if got := p.String(); got != "(3.000, 4.000)" {
		t.Fatalf("String = %q", got)
	}
	if got := p.Norm(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Norm = %g", got)
	}
}

// A tiny cell in huge bounds would need about 10¹⁶ cells; the layout
// grows the cell instead, keeping the count O(n) and queries exact.
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
	g := NewGrid(bounds, 0.01, 2)
	a := g.Insert(Point{X: 5e5, Y: 5e5})
	b := g.Insert(Point{X: 5e5 + 0.005, Y: 5e5})
	if found := g.Within(a, 0.01, nil); len(found) != 1 || found[0] != b {
		t.Fatalf("near pair not found: %v", found)
	}
	g.Move(b, Point{X: 1e6, Y: 1e6})
	if found := g.Within(a, 0.01, nil); len(found) != 0 {
		t.Fatalf("far pair found: %v", found)
	}
}

func TestGridClampsOutOfBoundsPoints(t *testing.T) {
	// Points on or slightly outside the boundary must land in edge cells
	// and still be discoverable by range queries.
	g := NewGrid(Square(10), 5, 4)
	a := g.Insert(Point{X: 10, Y: 10})   // on the far corner
	b := g.Insert(Point{X: 9.5, Y: 9.5}) // inside, close to a
	found := g.Within(b, 5, nil)
	if len(found) != 1 || found[0] != a {
		t.Fatalf("corner point not found: %v", found)
	}
	// Negative coordinates (outside bounds) clamp to cell 0 without panic.
	c := g.Insert(Point{X: -1, Y: -1})
	d := g.Insert(Point{X: 0.5, Y: 0.5})
	found = g.Within(d, 5, nil)
	ok := false
	for _, id := range found {
		if id == c {
			ok = true
		}
	}
	if !ok {
		t.Fatalf("clamped outside point not found from origin cell: %v", found)
	}
}
