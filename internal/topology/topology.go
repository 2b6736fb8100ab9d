// Package topology generates the random unit-disk-graph networks used in
// the paper's evaluation and provides mobility models for the maintenance
// ablation.
//
// The paper's setup: nodes are placed uniformly at random in a confined
// 100×100 working space; all nodes share one transmission range r; two nodes
// are neighbors iff their distance is below r; networks are generated for a
// *fixed average node degree* (d = 6 and d = 18) by solving the Poisson
// approximation d = (n−1)·πr²/A for r; disconnected samples are discarded.
package topology

import (
	"errors"
	"fmt"
	"math"

	"clustercast/internal/geom"
	"clustercast/internal/graph"
	"clustercast/internal/rng"
)

// Network is an immutable snapshot of a MANET: node positions, the common
// transmission range, and the induced unit disk graph.
type Network struct {
	Positions []geom.Point
	Radius    float64
	Bounds    geom.Rect
	G         *graph.Graph
}

// N returns the number of nodes.
func (nw *Network) N() int { return len(nw.Positions) }

// Config describes a random network scenario.
type Config struct {
	N         int       // number of nodes
	Bounds    geom.Rect // confined working space (paper: Square(100))
	AvgDegree float64   // target average degree; used when Radius == 0
	Radius    float64   // explicit transmission range; overrides AvgDegree if > 0

	// RequireConnected discards disconnected samples, as in the paper.
	RequireConnected bool
	// MaxAttempts bounds the rejection sampling (default 10000).
	MaxAttempts int
}

// ErrDisconnected is returned when no connected sample was found within
// MaxAttempts.
var ErrDisconnected = errors.New("topology: could not generate a connected network within the attempt budget")

// radius resolves the transmission range for the config.
func (c Config) radius() float64 {
	if c.Radius > 0 {
		return c.Radius
	}
	return geom.RangeForDegree(c.N, c.Bounds.Area(), c.AvgDegree)
}

// validate checks config sanity.
func (c Config) validate() error {
	if c.N <= 0 {
		return fmt.Errorf("topology: invalid node count %d", c.N)
	}
	if c.Bounds.Area() <= 0 {
		return errors.New("topology: bounds with non-positive area")
	}
	if !finite(c.AvgDegree) || !finite(c.Radius) {
		return fmt.Errorf("topology: non-finite AvgDegree %g or Radius %g", c.AvgDegree, c.Radius)
	}
	if c.Radius <= 0 && c.AvgDegree <= 0 {
		return errors.New("topology: need Radius or AvgDegree")
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Generate draws one random network according to the config. With
// RequireConnected it resamples until connected (up to MaxAttempts). Each
// call uses a fresh workspace, so the result is independently allocated;
// hot replicate loops use GenerateWith to reuse one workspace instead.
func Generate(c Config, r *rng.Stream) (*Network, error) {
	return GenerateWith(c, NewWorkspace(), r)
}

// buildUnitDiskGraph builds the unit disk graph over the positions with a
// spatial hash grid: each node's full neighbor list comes straight from one
// range query into a shared flat buffer, which then becomes the backing
// array of the adjacency lists (one sort per list) — O(n·deg) time and a
// constant number of allocations. The throwaway workspace keeps the result
// independently allocated (see Workspace.build for the implementation).
func buildUnitDiskGraph(positions []geom.Point, bounds geom.Rect, radius float64) *graph.Graph {
	return (&Workspace{}).build(positions, bounds, radius)
}

// FromPositions builds the unit disk graph induced by explicit positions
// and range. Used by mobility models and hand-crafted scenarios; it runs
// through the same spatial-grid path as random placement, so stepping a
// mobility model costs O(n·deg) per step instead of O(n²).
func FromPositions(positions []geom.Point, bounds geom.Rect, radius float64) *Network {
	// Positions outside the nominal bounds (hand-crafted scenarios) would
	// defeat the grid's cell clamping; grow the indexing rectangle to cover
	// them. The Network keeps the caller's bounds.
	gridBounds := bounds
	for _, p := range positions {
		if p.X < gridBounds.MinX {
			gridBounds.MinX = p.X
		}
		if p.X > gridBounds.MaxX {
			gridBounds.MaxX = p.X
		}
		if p.Y < gridBounds.MinY {
			gridBounds.MinY = p.Y
		}
		if p.Y > gridBounds.MaxY {
			gridBounds.MaxY = p.Y
		}
	}
	return &Network{
		Positions: append([]geom.Point(nil), positions...),
		Radius:    radius,
		Bounds:    bounds,
		G:         buildUnitDiskGraph(positions, gridBounds, radius),
	}
}

// GridPlacement places nodes on a jittered √n×√n lattice — a deterministic,
// well-spread topology useful for worst-case-ish tests (long chains of
// clusters).
func GridPlacement(n int, bounds geom.Rect, radius, jitter float64, r *rng.Stream) *Network {
	cols := 1
	for cols*cols < n {
		cols++
	}
	dx := bounds.Width() / float64(cols)
	dy := bounds.Height() / float64(cols)
	positions := make([]geom.Point, 0, n)
	for i := 0; i < n; i++ {
		cx := bounds.MinX + (float64(i%cols)+0.5)*dx
		cy := bounds.MinY + (float64(i/cols)+0.5)*dy
		p := geom.Point{
			X: cx + r.Range(-jitter, jitter),
			Y: cy + r.Range(-jitter, jitter),
		}
		positions = append(positions, bounds.Clamp(p))
	}
	return FromPositions(positions, bounds, radius)
}

// ClusteredPlacement drops k hotspot centers and places nodes around them
// with normal scatter — models the non-uniform deployments the broadcast
// storm literature worries about.
func ClusteredPlacement(n, k int, bounds geom.Rect, radius, spread float64, r *rng.Stream) *Network {
	if k <= 0 {
		k = 1
	}
	centers := make([]geom.Point, k)
	for i := range centers {
		centers[i] = geom.Point{
			X: r.Range(bounds.MinX, bounds.MaxX),
			Y: r.Range(bounds.MinY, bounds.MaxY),
		}
	}
	positions := make([]geom.Point, n)
	for i := range positions {
		c := centers[r.Intn(k)]
		p := geom.Point{
			X: c.X + r.NormFloat64()*spread,
			Y: c.Y + r.NormFloat64()*spread,
		}
		positions[i] = bounds.Clamp(p)
	}
	return FromPositions(positions, bounds, radius)
}

// LineTopology places n nodes on a horizontal line with the given spacing —
// the paper's worst case for lowest-ID clustering ("all the nodes placed in
// a chain with monotonous IDs").
func LineTopology(n int, spacing, radius float64) *Network {
	positions := make([]geom.Point, n)
	for i := range positions {
		positions[i] = geom.Point{X: float64(i) * spacing, Y: 0}
	}
	bounds := geom.Rect{MinX: 0, MinY: -1, MaxX: float64(n) * spacing, MaxY: 1}
	return FromPositions(positions, bounds, radius)
}
