package topology

import (
	"clustercast/internal/geom"
	"clustercast/internal/rng"
)

// RandomWaypoint implements the classic random waypoint mobility model:
// each node picks a uniform destination in the area and a uniform speed in
// [MinSpeed, MaxSpeed], travels there in a straight line, pauses for
// PauseTime, then repeats.
type RandomWaypoint struct {
	Bounds    geom.Rect
	MinSpeed  float64
	MaxSpeed  float64
	PauseTime float64

	rng       *rng.Stream
	positions []geom.Point
	targets   []geom.Point
	speeds    []float64
	pauses    []float64 // remaining pause time per node
}

// NewRandomWaypoint creates the model with the given starting positions.
func NewRandomWaypoint(start []geom.Point, bounds geom.Rect, minSpeed, maxSpeed, pause float64, r *rng.Stream) *RandomWaypoint {
	if minSpeed <= 0 {
		minSpeed = 0.01 // avoid the well-known speed-decay degeneracy at 0
	}
	if maxSpeed < minSpeed {
		maxSpeed = minSpeed
	}
	m := &RandomWaypoint{
		Bounds:    bounds,
		MinSpeed:  minSpeed,
		MaxSpeed:  maxSpeed,
		PauseTime: pause,
		rng:       r,
		positions: append([]geom.Point(nil), start...),
		targets:   make([]geom.Point, len(start)),
		speeds:    make([]float64, len(start)),
		pauses:    make([]float64, len(start)),
	}
	for i := range m.positions {
		m.retarget(i)
	}
	return m
}

func (m *RandomWaypoint) retarget(i int) {
	m.targets[i] = geom.Point{
		X: m.rng.Range(m.Bounds.MinX, m.Bounds.MaxX),
		Y: m.rng.Range(m.Bounds.MinY, m.Bounds.MaxY),
	}
	m.speeds[i] = m.rng.Range(m.MinSpeed, m.MaxSpeed)
}

// Positions returns the current positions without advancing.
func (m *RandomWaypoint) Positions() []geom.Point { return m.positions }

// Step advances the model by dt time units and returns the positions after
// the step. The returned slice is owned by the model.
func (m *RandomWaypoint) Step(dt float64) []geom.Point {
	for i := range m.positions {
		remaining := dt
		for remaining > 0 {
			if m.pauses[i] > 0 {
				if m.pauses[i] >= remaining {
					m.pauses[i] -= remaining
					remaining = 0
					break
				}
				remaining -= m.pauses[i]
				m.pauses[i] = 0
			}
			p := m.positions[i]
			tgt := m.targets[i]
			distLeft := p.Dist(tgt)
			travel := m.speeds[i] * remaining
			if travel < distLeft {
				t := travel / distLeft
				m.positions[i] = p.Lerp(tgt, t)
				remaining = 0
			} else {
				m.positions[i] = tgt
				if m.speeds[i] > 0 {
					remaining -= distLeft / m.speeds[i]
				} else {
					remaining = 0
				}
				m.pauses[i] = m.PauseTime
				m.retarget(i)
				if remaining > 0 && m.pauses[i] <= 0 && distLeft == 0 &&
					m.positions[i] == m.targets[i] {
					// Degenerate configuration: the node already sits on its
					// target, there is no pause to consume time, and the fresh
					// target is the same point (zero-area bounds). No iteration
					// can make progress, so the node is pinned for this step.
					break
				}
			}
		}
	}
	return m.positions
}
