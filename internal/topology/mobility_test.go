package topology

import (
	"math"
	"testing"
	"testing/quick"

	"clustercast/internal/geom"
	"clustercast/internal/rng"
)

// TestReflectLargeSteps is the regression test for the single-bounce bug:
// a step larger than the area must fold back under repeated reflection,
// not clamp onto the boundary.
func TestReflectLargeSteps(t *testing.T) {
	b := geom.Square(10)
	cases := []struct{ in, want geom.Point }{
		// One bounce past the far wall used to be handled.
		{geom.Point{X: 12, Y: 5}, geom.Point{X: 8, Y: 5}},
		// Two wall widths out: 25 → 25 mod 20 = 5.
		{geom.Point{X: 25, Y: 5}, geom.Point{X: 5, Y: 5}},
		// 1.5 widths past the near wall: -15 → fold to 5... -15 mod 20 = 5.
		{geom.Point{X: -15, Y: 5}, geom.Point{X: 5, Y: 5}},
		// Deep overshoot, both axes at once.
		{geom.Point{X: 38, Y: -27}, geom.Point{X: 2, Y: 7}},
		// Exactly on the period: 20 → 0, -20 → 0.
		{geom.Point{X: 20, Y: 0}, geom.Point{X: 0, Y: 0}},
		{geom.Point{X: -20, Y: 10}, geom.Point{X: 0, Y: 10}},
	}
	for _, c := range cases {
		if got := reflect(c.in, b); got != c.want {
			t.Fatalf("reflect(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestReflectPropertyInBoundsAndMeasurePreserving checks, over random
// inputs, that reflect lands strictly inside the bounds and agrees with
// the naive iterative mirror fold.
func TestReflectPropertyInBoundsAndMeasurePreserving(t *testing.T) {
	naive1 := func(x, lo, hi float64) float64 {
		for x < lo || x > hi {
			if x < lo {
				x = 2*lo - x
			}
			if x > hi {
				x = 2*hi - x
			}
		}
		return x
	}
	b := geom.Rect{MinX: -3, MinY: 2, MaxX: 17, MaxY: 9}
	f := func(x, y float64) bool {
		// Keep the fuzz inputs in a range where the naive loop terminates
		// quickly and float error stays tiny.
		x = math.Mod(x, 1e4)
		y = math.Mod(y, 1e4)
		p := reflect(geom.Point{X: x, Y: y}, b)
		if p.X < b.MinX || p.X > b.MaxX || p.Y < b.MinY || p.Y > b.MaxY {
			return false
		}
		return math.Abs(p.X-naive1(x, b.MinX, b.MaxX)) < 1e-6 &&
			math.Abs(p.Y-naive1(y, b.MinY, b.MaxY)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomWaypointDegenerateConfigsTerminate is the termination property
// test: Step must return for any combination of zero pause, zero-area
// bounds, and target == position.
func TestRandomWaypointDegenerateConfigsTerminate(t *testing.T) {
	f := func(seed uint64, side, pause, speed float64, zeroArea bool) bool {
		side = math.Abs(math.Mod(side, 100))
		pause = math.Abs(math.Mod(pause, 5))
		speed = math.Abs(math.Mod(speed, 30))
		if zeroArea {
			side = 0
		}
		b := geom.Square(side)
		start := make([]geom.Point, 8)
		for i := range start {
			start[i] = geom.Point{X: side / 2, Y: side / 2}
		}
		m := NewRandomWaypoint(start, b, speed, speed+1, pause, rng.New(seed))
		// A non-terminating Step fails the run via the test timeout.
		for s := 0; s < 50; s++ {
			m.Step(1)
		}
		return inBounds(m.Positions(), b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func inBounds(pts []geom.Point, b geom.Rect) bool {
	for _, p := range pts {
		if p.X < b.MinX || p.X > b.MaxX || p.Y < b.MinY || p.Y > b.MaxY {
			return false
		}
	}
	return true
}

// TestRandomWaypointZeroPauseZeroArea pins the exact configuration from
// the bug report: PauseTime == 0 with zero-area bounds used to spin the
// inner Step loop forever (retarget kept choosing the same point and no
// time was ever consumed).
func TestRandomWaypointZeroPauseZeroArea(t *testing.T) {
	b := geom.Rect{MinX: 5, MinY: 5, MaxX: 5, MaxY: 5}
	start := []geom.Point{{X: 5, Y: 5}, {X: 5, Y: 5}}
	m := NewRandomWaypoint(start, b, 1, 2, 0, rng.New(3))
	for s := 0; s < 10; s++ {
		pts := m.Step(1) // must return
		for _, p := range pts {
			if p != (geom.Point{X: 5, Y: 5}) {
				t.Fatalf("zero-area node moved to %v", p)
			}
		}
	}
}
