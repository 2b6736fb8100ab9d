package topology

import (
	"fmt"
	"slices"

	"clustercast/internal/des"
	"clustercast/internal/geom"
	"clustercast/internal/graph"
	"clustercast/internal/rng"
)

// Workspace owns every buffer one replicate pipeline needs to sample a
// random network: positions, the cell-sorted grid, the per-band edge
// lists, the union-find forest, the sort-free adjacency assembly and the
// graph itself. A worker reuses one Workspace across all its
// replicates (and across the connected-rejection attempts inside each),
// so steady-state topology sampling allocates nothing.
//
// The Network returned by GenerateWith is owned by the workspace and valid
// only until the next GenerateWith call on the same workspace.
type Workspace struct {
	// BuildWorkers shards the unit-disk sweep, the degree count and the
	// scatter of the adjacency assembly over this many grid-row bands,
	// and its transposition over as many ID strips, when > 1 (see build);
	// the assembled graph is bit-identical to the sequential build for
	// any value. Zero or one keeps the fully sequential path.
	BuildWorkers int

	positions []geom.Point

	// The cell-sorted grid: node coordinates and IDs stored in cell order
	// (stable in ID), cell c holding slots [cellStart[c], cellStart[c+1]).
	cells     geom.Cells
	cellStart []int32
	xs, ys    []float64
	ids       []int32

	bands  [][]uint64 // per-band packed edges u<<32 | v
	parent []int32    // union-find forest over node IDs
	// degs holds n counters per band: band b's degree counts, then its
	// scatter cursors; the first n then serve as transposition cursors.
	degs    []int32
	off     []int32
	rows    []int32 // the unsorted rows assemble transposes into backing
	backing []int32
	g       graph.Graph
	nw      Network

	sh des.Shards // row-band and ID-strip partitioner of the sharded build
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace {
	return &Workspace{}
}

// GenerateWith draws one random network exactly like Generate — same
// randomness consumption, same rejection sampling, bit-identical result —
// but reuses the workspace buffers instead of allocating. A draw whose
// adjacency would exceed graph.MaxEntries fails at once with an error
// naming its entry count, before any assembly; it is not a disconnected
// draw, so it is neither retried nor wraps ErrDisconnected.
func GenerateWith(c Config, ws *Workspace, r *rng.Stream) (*Network, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	radius := c.radius()
	attempts := c.MaxAttempts
	if attempts <= 0 {
		attempts = defaultMaxAttempts(c.N)
	}
	for a := 0; a < attempts; a++ {
		if nw, err := ws.place(c.N, c.Bounds, radius, c.RequireConnected, r); nw != nil || err != nil {
			return nw, err
		}
	}
	return nil, fmt.Errorf("topology: no connected unit-disk sample for n=%d (target degree %.3g, radius %.4g, bounds %.4gx%.4g) after %d attempts — the density is likely below the connectivity threshold; raise AvgDegree/Radius or MaxAttempts, or clear RequireConnected: %w",
		c.N, c.AvgDegree, radius, c.Bounds.Width(), c.Bounds.Height(), attempts, ErrDisconnected)
}

// defaultMaxAttempts bounds connected-only rejection sampling when the
// caller sets no explicit MaxAttempts: the paper-scale default of 10000
// attempts, scaled down once a single placement becomes expensive so an
// infeasible configuration (large n, sub-threshold degree) fails in
// bounded time with the descriptive error above instead of effectively
// hanging. Callers that pass MaxAttempts are unaffected.
func defaultMaxAttempts(n int) int {
	const budget = 20_000_000 // total node placements we are willing to spend
	if n <= budget/10000 {
		return 10000
	}
	a := budget / n
	if a < 10 {
		a = 10
	}
	return a
}

// FromPositions is the package-level FromPositions on the workspace's
// buffers: it copies the positions in and builds the same graph, but the
// Network is owned by the workspace and valid only until its next
// FromPositions or GenerateWith call. A mobility loop that rebuilds every
// step through one workspace allocates nothing once its buffers have
// grown. Positions whose unit disk graph exceeds graph.MaxEntries
// adjacency entries panic, as FromEdges does; Load returns that error.
func (ws *Workspace) FromPositions(positions []geom.Point, bounds geom.Rect, radius float64) *Network {
	nw, err := ws.fromPositions(positions, bounds, radius)
	if err != nil {
		panic(err)
	}
	return nw
}

// fromPositions is FromPositions with the capacity error returned.
func (ws *Workspace) fromPositions(positions []geom.Point, bounds geom.Rect, radius float64) (*Network, error) {
	ws.positions = append(ws.positions[:0], positions...)
	g, err := ws.buildUnitDisk(ws.positions, bounds, radius, false)
	if err != nil {
		return nil, err
	}
	ws.nw = Network{Positions: ws.positions, Radius: radius, Bounds: bounds, G: g}
	return &ws.nw, nil
}

// buildUnitDisk is build over explicit positions: positions outside the
// nominal bounds (hand-crafted scenarios) would defeat the grid's cell
// clamping, so the indexing rectangle grows to cover them.
func (ws *Workspace) buildUnitDisk(positions []geom.Point, bounds geom.Rect, radius float64, connected bool) (*graph.Graph, error) {
	for _, p := range positions {
		if p.X < bounds.MinX {
			bounds.MinX = p.X
		}
		if p.X > bounds.MaxX {
			bounds.MaxX = p.X
		}
		if p.Y < bounds.MinY {
			bounds.MinY = p.Y
		}
		if p.Y > bounds.MaxY {
			bounds.MaxY = p.Y
		}
	}
	return ws.build(positions, bounds, radius, connected)
}

// place positions n nodes uniformly into the workspace buffers and builds
// the unit disk graph. Every attempt draws exactly 2n values. With
// connected set, a disconnected draw returns no network and no error,
// before any adjacency is assembled.
func (ws *Workspace) place(n int, bounds geom.Rect, radius float64, connected bool, r *rng.Stream) (*Network, error) {
	if cap(ws.positions) < n {
		ws.positions = make([]geom.Point, n)
	}
	ws.positions = ws.positions[:n]
	for i := range ws.positions {
		ws.positions[i] = geom.Point{
			X: r.Range(bounds.MinX, bounds.MaxX),
			Y: r.Range(bounds.MinY, bounds.MaxY),
		}
	}
	g, err := ws.build(ws.positions, bounds, radius, connected)
	if g == nil {
		return nil, err
	}
	ws.nw = Network{
		Positions: ws.positions,
		Radius:    radius,
		Bounds:    bounds,
		G:         g,
	}
	return &ws.nw, nil
}

// build constructs the unit disk graph over the positions into the
// workspace graph. It is the single implementation behind FromPositions
// and the zero-allocation replicate path, for every worker count.
//
//  1. layout counting-sorts the nodes into the cell-sorted grid.
//  2. The half-neighborhood sweep distance-tests every candidate pair
//     once. With BuildWorkers > 1 it is sharded over contiguous grid-row
//     bands, each appending to its own edge list (the sweep only reads the
//     grid); otherwise one band covers every row. Either way the bands'
//     lists partition the same pair set.
//  3. Each band counts the degrees its edges give into counters of its
//     own, and the row offsets are their prefix sum. A draw with more
//     adjacency entries than graph.MaxEntries returns the error of
//     checkEntries here. With connected set, a disconnected draw (see
//     connected) returns a nil graph and no error here. Either way none of
//     the assembly below runs.
//  4. assemble scatters each band's list into the unsorted rows, the
//     bands concurrently when there are several, and transposes the rows
//     into compressed-sparse-row form with ascending rows, over as many
//     ID strips.
//
// The transposition orders every row by source ID, so the CSR depends
// only on the edge set, never on discovery order: it is bit-identical for
// any worker count.
func (ws *Workspace) build(positions []geom.Point, bounds geom.Rect, radius float64, connected bool) (*graph.Graph, error) {
	n := len(positions)
	ws.off = resize(ws.off, n+1)
	if radius < 0 {
		if connected && n > 1 {
			return nil, nil
		}
		clear(ws.off)
		ws.g.RenewCSR(ws.off, ws.backing[:0])
		return &ws.g, nil
	}
	cell := radius
	if cell <= 0 {
		cell = bounds.Width() + bounds.Height() + 1 // degenerate: one big cell
	}
	ws.layout(positions, geom.NewCells(bounds, cell, n))

	r2 := radius * radius
	rows, workers := ws.cells.Rows(), ws.BuildWorkers
	k := 1
	if workers > 1 {
		ws.sh.ResetRange(rows, workers)
		k = ws.sh.K()
	}
	for len(ws.bands) < k {
		ws.bands = append(ws.bands, nil)
	}
	bands := ws.bands[:k]
	ws.degs = resize(ws.degs, k*n)
	if k == 1 {
		bands[0] = ws.sweep(0, rows, r2, bands[0][:0])
		ws.countDegrees(0)
	} else {
		ws.sh.Each(workers, func(s int) {
			lo, hi := ws.sh.Range(s)
			bands[s] = ws.sweep(lo, hi, r2, bands[s][:0])
			ws.countDegrees(s)
		})
	}
	entries := 0
	for _, b := range bands {
		entries += 2 * len(b)
	}
	if err := checkEntries(int64(entries)); err != nil {
		return nil, err
	}
	off, degs := ws.off, ws.degs
	off[0] = 0
	for u := 0; u < n; u++ {
		d := off[u]
		for i := u; i < len(degs); i += n {
			d += degs[i]
		}
		off[u+1] = d
	}
	if connected && !ws.connected(bands) {
		return nil, nil
	}
	return ws.assemble(bands, workers), nil
}

// checkEntries fails a draw with more adjacency entries than a graph
// holds: the int32 offsets and assembly cursors would overflow.
func checkEntries(entries int64) error {
	if entries > graph.MaxEntries {
		return fmt.Errorf("topology: the unit disk graph has %d adjacency entries, more than the %d a graph holds; lower n or the degree", entries, int64(graph.MaxEntries))
	}
	return nil
}

// layout fills the cell-sorted grid: a counting sort of the nodes by cell
// into contiguous coordinate and ID arrays, stable in node ID.
func (ws *Workspace) layout(positions []geom.Point, cells geom.Cells) {
	n := len(positions)
	cols, nc := cells.Cols(), cells.Cols()*cells.Rows()
	cell := func(p geom.Point) int {
		cx, cy := cells.Cell(p)
		return cy*cols + cx
	}
	ws.cells = cells
	ws.xs, ws.ys, ws.ids = resize(ws.xs, n), resize(ws.ys, n), resize(ws.ids, n)
	// Cell c's count goes to start[c+2], so after the prefix sum start[c+1]
	// is the first slot of cell c and serves as its fill cursor; once the
	// fill has advanced every cursor, start[c] is the first slot of c.
	start := resize(ws.cellStart, nc+2)
	clear(start)
	for _, p := range positions {
		start[cell(p)+2]++
	}
	for c := 2; c < len(start); c++ {
		start[c] += start[c-1]
	}
	xs, ys, ids := ws.xs, ws.ys, ws.ids
	for i, p := range positions {
		c := cell(p) + 1
		s := start[c]
		start[c]++
		xs[s], ys[s], ids[s] = p.X, p.Y, int32(i)
	}
	ws.cellStart = start[:nc+1]
}

// sweep appends to edges every pair within range whose sweep anchor, the
// cell of its first node, lies in grid rows [lo, hi). Each node is tested
// against two contiguous slot ranges: the rest of its own cell together
// with the east neighbor, which follows it in cell order, and the three
// cells of the row below. Every unordered pair is found exactly once, by
// the row of its anchor, so sweeps over a partition of the rows report
// exactly the pair set of one sweep over all of them.
func (ws *Workspace) sweep(lo, hi int, r2 float64, edges []uint64) []uint64 {
	cols, rows := ws.cells.Cols(), ws.cells.Rows()
	start, xs, ys, ids := ws.cellStart, ws.xs, ws.ys, ws.ids
	for cy := lo; cy < hi; cy++ {
		for cx := 0; cx < cols; cx++ {
			c := cy*cols + cx
			a0, a1 := int(start[c]), int(start[c+1])
			if a0 == a1 {
				continue
			}
			east := a1
			if cx+1 < cols {
				east = int(start[c+2])
			}
			b0, b1 := 0, 0
			if cy+1 < rows {
				below := c + cols
				b0 = int(start[below-min(cx, 1)])
				b1 = int(start[below+min(cols-1-cx, 1)+1])
			}
			// Room for every candidate pair of this cell, so the inner
			// loops store each candidate and keep it by advancing k only
			// when it is in range — no data-dependent branch.
			edges = slices.Grow(edges, (a1-a0)*(east-a0+b1-b0))
			buf, k := edges[:cap(edges)], len(edges)
			bx, by, bid := xs[b0:b1], ys[b0:b1], ids[b0:b1]
			for i := a0; i < a1; i++ {
				xi, yi, u := xs[i], ys[i], uint64(ids[i])<<32
				ex, ey, eid := xs[i+1:east], ys[i+1:east], ids[i+1:east]
				for j := range ex {
					dx, dy := xi-ex[j], yi-ey[j]
					buf[k] = u | uint64(eid[j])
					if dx*dx+dy*dy <= r2 {
						k++
					}
				}
				for j := range bx {
					dx, dy := xi-bx[j], yi-by[j]
					buf[k] = u | uint64(bid[j])
					if dx*dx+dy*dy <= r2 {
						k++
					}
				}
			}
			edges = buf[:k]
		}
	}
	return edges
}

// countDegrees counts into band b's degree counters the endpoints of its
// edges.
func (ws *Workspace) countDegrees(b int) {
	n := len(ws.off) - 1
	deg := ws.degs[b*n : (b+1)*n]
	clear(deg)
	for _, e := range ws.bands[b] {
		deg[e>>32]++
		deg[uint32(e)]++
	}
}

// connected reports whether the edge lists, whose row offsets ws.off
// holds, connect all nodes. A node without neighbors, behind half to two
// thirds of the rejected paper-scale draws at d=6, settles it at once;
// otherwise a union-find pass with path halving stops as soon as one
// component is left. Linking the larger root under the smaller takes
// about 15% fewer find steps on paper-scale draws than linking in edge
// order.
func (ws *Workspace) connected(bands [][]uint64) bool {
	off := ws.off
	n := len(off) - 1
	if n <= 1 {
		return true
	}
	for u := 0; u < n; u++ {
		if off[u+1] == off[u] {
			return false
		}
	}
	parent := resize(ws.parent, n)
	ws.parent = parent
	for i := range parent {
		parent[i] = int32(i)
	}
	comps := n
	for _, edges := range bands {
		for _, e := range edges {
			a, b := find(parent, int32(e>>32)), find(parent, int32(uint32(e)))
			if a == b {
				continue
			}
			if a < b {
				a, b = b, a
			}
			parent[a] = b
			if comps--; comps == 1 {
				return true
			}
		}
	}
	return false
}

// find returns the root of x's tree, halving the path on the way.
func find(parent []int32, x int32) int32 {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// assemble stitches the band edge lists, whose per-band degrees ws.degs
// and row offsets ws.off hold, into the workspace graph in
// compressed-sparse-row form with ascending rows, without comparing
// entries. graph.ScatterRows writes every band's edges into the int32
// buffer of unsorted rows, through cursors that start each band where the
// lower bands' entries of each row end, so the bands scatter
// concurrently. graph.TransposeRows then appends the sources to their
// neighbors' rows in ID order, over as many contiguous ID strips, each
// writing only its own rows. The handoff to the graph is the trusted
// RenewCSR: the sweep visits every unordered pair exactly once and never
// pairs a node with itself, so the rows are symmetric, duplicate-free and
// in range by construction.
func (ws *Workspace) assemble(bands [][]uint64, workers int) *graph.Graph {
	off, degs := ws.off, ws.degs
	n, k := len(off)-1, len(bands)
	ws.rows, ws.backing = resize(ws.rows, int(off[n])), resize(ws.backing, int(off[n]))
	rows, flat := ws.rows, ws.backing
	for u := 0; u < n; u++ {
		c := off[u]
		for i := u; i < len(degs); i += n {
			c, degs[i] = c+degs[i], c
		}
	}
	if k == 1 {
		graph.ScatterRows(rows, degs, bands[0])
		graph.TransposeRows(flat, rows, off, degs, 0, n)
	} else {
		ws.sh.ResetRange(k, workers)
		ws.sh.Each(workers, func(b int) {
			graph.ScatterRows(rows, degs[b*n:(b+1)*n], bands[b])
		})
		ws.sh.ResetRange(n, k)
		ws.sh.Each(workers, func(s int) {
			lo, hi := ws.sh.Range(s)
			graph.TransposeRows(flat, rows, off, degs[:n], lo, hi)
		})
	}
	ws.g.RenewCSR(off, flat)
	return &ws.g
}

// resize returns s with length n, reallocating only when its capacity is
// short; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
