package topology

import (
	"math"
	"testing"
	"testing/quick"

	"clustercast/internal/geom"
	"clustercast/internal/rng"
)

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
