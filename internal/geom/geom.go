// Package geom provides the planar geometry primitives underlying the
// unit-disk-graph model of a MANET: points, rectangles (the confined working
// space of the paper, 100×100 by default) and the cell layout of a uniform
// grid, which lets the unit-disk build test each node against the nodes of
// its own and adjacent cells only, O(deg) per node instead of O(n).
package geom

import (
	"fmt"
	"math"
)

// Point is a position in the plane.
type Point struct {
	X, Y float64
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.3f, %.3f)", p.X, p.Y) }

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector p − q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Lerp returns the point a fraction t of the way from p to q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Rect is an axis-aligned rectangle [MinX, MaxX] × [MinY, MaxY].
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// Square returns a side×side rectangle anchored at the origin — the paper's
// confined working space is Square(100).
func Square(side float64) Rect {
	return Rect{0, 0, side, side}
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Area returns the area of r.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Contains reports whether p lies inside r (inclusive of the boundary).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// Clamp returns p moved to the nearest point inside r.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Max(r.MinX, math.Min(r.MaxX, p.X)),
		Y: math.Max(r.MinY, math.Min(r.MaxY, p.Y)),
	}
}

// Center returns the midpoint of r.
func (r Rect) Center() Point {
	return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2}
}

// Cells is the cell layout of a uniform grid over a rectangle: the cell
// size, the column and row counts, and the map from a point to its cell.
// With cell size at least the radio range, all neighbors of a point lie
// in its own cell or one of the 8 adjacent cells.
type Cells struct {
	minX, minY float64
	size       float64
	cols, rows int
}

// NewCells lays out cells of the given size over bounds for a grid that
// will hold n points. The cell count is O(n) whatever the bounds: when
// the size would need more than 4n+64 cells (a tiny range in huge
// bounds), it doubles until the count fits. A larger cell only adds
// candidate pairs, so range queries find the same points. The paper's
// scenarios need about n·π/d cells and never reach the cap.
func NewCells(bounds Rect, size float64, n int) Cells {
	if size <= 0 {
		panic("geom: non-positive grid cell size")
	}
	limit := float64(4*n + 64)
	for {
		cols := math.Max(1, math.Ceil(bounds.Width()/size)+1)
		rows := math.Max(1, math.Ceil(bounds.Height()/size)+1)
		if cols*rows <= limit {
			return Cells{minX: bounds.MinX, minY: bounds.MinY, size: size, cols: int(cols), rows: int(rows)}
		}
		if !(size <= math.MaxFloat64) {
			// The size overflowed, or the bounds are not finite: one cell.
			return Cells{minX: bounds.MinX, minY: bounds.MinY, size: size, cols: 1, rows: 1}
		}
		size *= 2
	}
}

// Cols returns the number of cell columns.
func (c Cells) Cols() int { return c.cols }

// Rows returns the number of cell rows.
func (c Cells) Rows() int { return c.rows }

// Cell returns the column and row of p's cell, clamping points on or
// outside the boundary into the edge cells.
func (c Cells) Cell(p Point) (cx, cy int) {
	return clampCell((p.X-c.minX)/c.size, c.cols), clampCell((p.Y-c.minY)/c.size, c.rows)
}

// clampCell truncates a fractional cell coordinate into [0, n); negative
// and NaN coordinates land in cell 0.
func clampCell(f float64, n int) int {
	if f >= float64(n) {
		return n - 1
	}
	if f >= 0 {
		return int(f)
	}
	return 0
}

// ExpectedDegree returns the average node degree predicted by the Poisson
// point process approximation for n nodes uniformly placed in area A with
// radio range r: each node sees on average (n−1)·πr²/A others (border
// effects ignored).
func ExpectedDegree(n int, area, radius float64) float64 {
	if n <= 1 || area <= 0 {
		return 0
	}
	return float64(n-1) * math.Pi * radius * radius / area
}

// RangeForDegree inverts ExpectedDegree: the radio range needed so that n
// uniformly placed nodes in the given area have average degree d. This is how
// the paper's "fixed average node degree d = 6 and 18" scenarios derive the
// transmission range for each network size.
func RangeForDegree(n int, area, d float64) float64 {
	if n <= 1 || d <= 0 {
		return 0
	}
	return math.Sqrt(d * area / (float64(n-1) * math.Pi))
}
