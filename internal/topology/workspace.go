package topology

import (
	"fmt"
	"sort"

	"clustercast/internal/des"
	"clustercast/internal/geom"
	"clustercast/internal/graph"
	"clustercast/internal/rng"
)

// Workspace owns every buffer one replicate pipeline needs to sample a
// random network: positions, the spatial grid, the packed edge list, the
// count-then-fill adjacency assembly, the graph itself and the connectivity
// scratch. A worker reuses one Workspace across all its replicates (and
// across the connected-rejection attempts inside each), so steady-state
// topology sampling allocates nothing.
//
// The Network returned by GenerateWith is owned by the workspace and valid
// only until the next GenerateWith call on the same workspace.
type Workspace struct {
	// BuildWorkers shards the unit-disk sweep and segment sort over this
	// many goroutines when > 1 (see buildParallel); the assembled graph is
	// bit-identical to the sequential build for any value. Zero or one
	// keeps the fully sequential path.
	BuildWorkers int

	positions []geom.Point
	grid      geom.Grid
	edges     []uint64
	deg       []int
	off       []int
	backing   []int
	scratch   *graph.Scratch
	g         graph.Graph
	nw        Network

	// Parallel-build state: the row/strip partitioner and per-band arenas.
	sh    des.Shards
	bands []buildBand
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace {
	return &Workspace{scratch: graph.NewScratch(0)}
}

// GenerateWith draws one random network exactly like Generate — same
// randomness consumption, same rejection sampling, bit-identical result —
// but reuses the workspace buffers instead of allocating.
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
		nw := ws.place(c.N, c.Bounds, radius, r)
		if !c.RequireConnected || nw.G.ConnectedWith(ws.scratch) {
			return nw, nil
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

// place positions n nodes uniformly into the workspace buffers and builds
// the unit disk graph, mirroring the package-level place.
func (ws *Workspace) place(n int, bounds geom.Rect, radius float64, r *rng.Stream) *Network {
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
	ws.nw = Network{
		Positions: ws.positions,
		Radius:    radius,
		Bounds:    bounds,
		G:         ws.build(ws.positions, bounds, radius),
	}
	return &ws.nw
}

// build constructs the unit disk graph over the positions into the
// workspace graph, reusing the grid, the packed edge list and the CSR
// arrays. It is the single implementation behind buildUnitDiskGraph and
// the zero-allocation replicate path.
//
// The graph is assembled directly in compressed-sparse-row form: degrees
// are counted during the pair sweep, offsets are one prefix-sum pass, the
// flat neighbor array is filled with per-node cursors, and each segment is
// insertion-sorted in place. The handoff to the graph is the trusted
// RenewCSR — the half-neighborhood sweep visits every unordered pair at
// most once and never pairs a node with itself, so the symmetric/
// duplicate-free/in-range validation Renew would re-run is guaranteed by
// construction.
func (ws *Workspace) build(positions []geom.Point, bounds geom.Rect, radius float64) *graph.Graph {
	n := len(positions)
	ws.ensureCSR(n)
	if radius < 0 {
		off := ws.off
		for i := range off {
			off[i] = 0
		}
		ws.g.RenewCSR(off, ws.backing[:0])
		return &ws.g
	}
	gridCell := radius
	if gridCell <= 0 {
		gridCell = bounds.Width() + bounds.Height() + 1 // degenerate: one big cell
	}
	ws.grid.Reset(bounds, gridCell)
	for _, p := range positions {
		ws.grid.Insert(p)
	}
	if ws.BuildWorkers > 1 {
		return ws.buildParallel(positions, radius, ws.BuildWorkers)
	}
	// One half-neighborhood sweep distance-tests every candidate pair once;
	// edges are packed into one slice sized from the Poisson degree
	// estimate, then the adjacency lists are assembled count-then-fill into
	// a single backing array. The estimate grows with the range squared,
	// so it is clamped to the n(n−1)/2 edges a simple graph can have.
	capHint := int(min(float64(n)*geom.ExpectedDegree(n, bounds.Area(), radius)*0.65+2*float64(n),
		float64(n)*float64(n-1)/2))
	if cap(ws.edges) < capHint {
		ws.edges = make([]uint64, 0, capHint)
	}
	edges := ws.edges[:0]
	deg := ws.deg
	for i := range deg {
		deg[i] = 0
	}
	ws.grid.Pairs(radius, func(u, v int) {
		deg[u]++
		deg[v]++
		edges = append(edges, uint64(u)<<32|uint64(v))
	})
	ws.edges = edges
	off := ws.off
	off[0] = 0
	for u := 0; u < n; u++ {
		off[u+1] = off[u] + deg[u]
	}
	if cap(ws.backing) < off[n] {
		ws.backing = make([]int, off[n])
	}
	backing := ws.backing[:off[n]]
	cur := deg // reuse as fill cursors
	copy(cur, off[:n])
	for _, e := range edges {
		u, v := int(e>>32), int(e&0xffffffff)
		backing[cur[u]] = v
		cur[u]++
		backing[cur[v]] = u
		cur[v]++
	}
	for u := 0; u < n; u++ {
		sortShortPos(backing[off[u]:off[u+1]])
	}
	ws.g.RenewCSR(off, backing)
	return &ws.g
}

// ensureCSR sizes the degree/offset buffers for n nodes.
func (ws *Workspace) ensureCSR(n int) {
	if cap(ws.deg) < n {
		ws.deg = make([]int, n)
	}
	ws.deg = ws.deg[:n]
	if cap(ws.off) < n+1 {
		ws.off = make([]int, n+1)
	}
	ws.off = ws.off[:n+1]
}

// sortShortPos sorts a short neighbor list in place (insertion sort; the
// generic machinery costs more than it saves at radio-graph degrees).
func sortShortPos(l []int) {
	if len(l) > 32 {
		sort.Ints(l)
		return
	}
	for i := 1; i < len(l); i++ {
		v := l[i]
		j := i - 1
		for j >= 0 && l[j] > v {
			l[j+1] = l[j]
			j--
		}
		l[j+1] = v
	}
}
