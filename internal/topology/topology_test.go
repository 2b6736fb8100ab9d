package topology

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"clustercast/internal/geom"
	"clustercast/internal/graph"
	"clustercast/internal/rng"
)

func TestGenerateBasic(t *testing.T) {
	r := rng.New(1)
	nw, err := Generate(Config{N: 50, Bounds: geom.Square(100), AvgDegree: 6, RequireConnected: true}, r)
	if err != nil {
		t.Fatal(err)
	}
	if nw.N() != 50 || nw.G.N() != 50 {
		t.Fatalf("node count %d/%d", nw.N(), nw.G.N())
	}
	if !nw.G.Connected() {
		t.Fatal("RequireConnected violated")
	}
	for _, p := range nw.Positions {
		if !nw.Bounds.Contains(p) {
			t.Fatalf("node outside bounds: %v", p)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	r := rng.New(1)
	if _, err := Generate(Config{N: 0, Bounds: geom.Square(100), AvgDegree: 6}, r); err == nil {
		t.Fatal("N=0 must fail")
	}
	if _, err := Generate(Config{N: 10, AvgDegree: 6}, r); err == nil {
		t.Fatal("zero-area bounds must fail")
	}
	// An inverted square has a positive area; NaN and infinite bounds
	// would send the sampler through its whole attempt budget.
	for _, b := range []geom.Rect{
		geom.Square(-5),
		geom.Square(math.NaN()),
		geom.Square(math.Inf(1)),
		{MinX: math.Inf(-1), MinY: 0, MaxX: 100, MaxY: 100},
		{MinX: 0, MinY: 0, MaxX: 100, MaxY: math.NaN()},
		{MinX: 0, MinY: 0, MaxX: 1e200, MaxY: 1e200},
	} {
		if _, err := Generate(Config{N: 10, Bounds: b, AvgDegree: 6}, r); err == nil || !strings.Contains(err.Error(), "bounds") {
			t.Fatalf("bounds %+v: want a bounds error, got %v", b, err)
		}
	}
	if _, err := Generate(Config{N: 10, Bounds: geom.Square(100)}, r); err == nil {
		t.Fatal("missing radius and degree must fail")
	}
	if _, err := Generate(Config{N: 10, Bounds: geom.Square(100), AvgDegree: -3}, r); err == nil || !strings.Contains(err.Error(), "negative AvgDegree -3") {
		t.Fatalf("AvgDegree -3: want a negative-degree error, got %v", err)
	}
	if _, err := Generate(Config{N: 10, Bounds: geom.Square(100), AvgDegree: 6, Radius: -2}, r); err == nil || !strings.Contains(err.Error(), "negative Radius -2") {
		t.Fatalf("Radius -2: want a negative-radius error, got %v", err)
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Generate(Config{N: 10, Bounds: geom.Square(100), AvgDegree: x}, r); err == nil {
			t.Fatalf("AvgDegree %g must fail", x)
		}
		if _, err := Generate(Config{N: 10, Bounds: geom.Square(100), AvgDegree: 6, Radius: x}, r); err == nil {
			t.Fatalf("Radius %g must fail", x)
		}
	}
	// A huge but finite degree sizes the edge buffer by the complete
	// graph, not by the Poisson estimate (about 6.5e10 edges here).
	nw, err := Generate(Config{N: 100, Bounds: geom.Square(100), AvgDegree: 1e9, RequireConnected: true}, r)
	if err != nil {
		t.Fatal(err)
	}
	if m := nw.G.M(); m != 100*99/2 {
		t.Fatalf("AvgDegree 1e9 at n=100: %d edges, want the complete graph's %d", m, 100*99/2)
	}
}

func TestGenerateDisconnectedBudget(t *testing.T) {
	r := rng.New(1)
	// Tiny radius in a big area: essentially never connected.
	_, err := Generate(Config{
		N: 30, Bounds: geom.Square(100), Radius: 0.5,
		RequireConnected: true, MaxAttempts: 5,
	}, r)
	if !errors.Is(err, ErrDisconnected) {
		t.Fatalf("want ErrDisconnected, got %v", err)
	}
	// The wrapped error names the infeasible configuration so a failed CLI
	// run explains itself.
	for _, part := range []string{"n=30", "attempts"} {
		if !strings.Contains(err.Error(), part) {
			t.Fatalf("error %q does not mention %q", err, part)
		}
	}
}

func TestDefaultMaxAttemptsBounded(t *testing.T) {
	if got := defaultMaxAttempts(100); got != 10000 {
		t.Fatalf("paper-scale default changed: %d", got)
	}
	if got := defaultMaxAttempts(2_000_000); got < 10 || got > 100 {
		t.Fatalf("large-n default not scaled down: %d", got)
	}
	// The total placement budget stays bounded across sizes (up to the
	// 10-attempt floor that keeps rejection sampling meaningful).
	for _, n := range []int{10_000, 100_000, 10_000_000} {
		work := int64(defaultMaxAttempts(n)) * int64(n)
		ceiling := int64(25_000_000)
		if floor := int64(10) * int64(n); floor > ceiling {
			ceiling = floor
		}
		if work > ceiling {
			t.Fatalf("n=%d: default budget %d placements is unbounded", n, work)
		}
	}
}

func TestGenerateEdgesMatchRadius(t *testing.T) {
	r := rng.New(7)
	nw, err := Generate(Config{N: 80, Bounds: geom.Square(100), AvgDegree: 8}, r)
	if err != nil {
		t.Fatal(err)
	}
	// Unit-disk property: edge iff distance <= radius.
	for u := 0; u < nw.N(); u++ {
		for v := u + 1; v < nw.N(); v++ {
			d := nw.Positions[u].Dist(nw.Positions[v])
			if (d <= nw.Radius) != nw.G.HasEdge(u, v) {
				t.Fatalf("UDG property violated for %d,%d: dist=%g r=%g edge=%v",
					u, v, d, nw.Radius, nw.G.HasEdge(u, v))
			}
		}
	}
}

func TestAverageDegreeNearTarget(t *testing.T) {
	// Over many samples the empirical average degree should approach the
	// target (border effects pull it below the Poisson value; allow slack).
	r := rng.New(11)
	const target = 18.0
	sum := 0.0
	const samples = 30
	for i := 0; i < samples; i++ {
		nw, err := Generate(Config{N: 100, Bounds: geom.Square(100), AvgDegree: target}, r)
		if err != nil {
			t.Fatal(err)
		}
		sum += nw.G.AvgDegree()
	}
	avg := sum / samples
	if avg < target*0.7 || avg > target*1.1 {
		t.Fatalf("empirical avg degree %.2f too far from target %.1f", avg, target)
	}
}

func TestFromPositions(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 3, Y: 0}}
	nw := FromPositions(pts, geom.Square(10), 1.5)
	if !nw.G.HasEdge(0, 1) {
		t.Fatal("edge {0,1} expected at distance 1")
	}
	if nw.G.HasEdge(0, 2) {
		t.Fatal("no edge {0,2} at distance 3")
	}
	if nw.G.HasEdge(1, 2) {
		t.Fatal("no edge {1,2} at distance 2")
	}
	// Input slice must be copied.
	pts[0] = geom.Point{X: 99, Y: 99}
	if nw.Positions[0].X == 99 {
		t.Fatal("FromPositions must copy its input")
	}
}

func TestLineTopology(t *testing.T) {
	nw := LineTopology(5, 1.0, 1.2)
	// Chain: i connected to i±1 only.
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			want := v-u == 1
			if nw.G.HasEdge(u, v) != want {
				t.Fatalf("line edge {%d,%d} = %v want %v", u, v, nw.G.HasEdge(u, v), want)
			}
		}
	}
	if !nw.G.Connected() {
		t.Fatal("line must be connected")
	}
}

func TestGridPlacement(t *testing.T) {
	r := rng.New(3)
	nw := GridPlacement(25, geom.Square(100), 25, 0, r)
	if nw.N() != 25 {
		t.Fatalf("N = %d", nw.N())
	}
	if !nw.G.Connected() {
		t.Fatal("5×5 lattice with range larger than spacing must be connected")
	}
	for _, p := range nw.Positions {
		if !nw.Bounds.Contains(p) {
			t.Fatalf("grid node outside bounds: %v", p)
		}
	}
}

func TestClusteredPlacement(t *testing.T) {
	r := rng.New(5)
	nw := ClusteredPlacement(60, 3, geom.Square(100), 20, 8, r)
	if nw.N() != 60 {
		t.Fatalf("N = %d", nw.N())
	}
	for _, p := range nw.Positions {
		if !nw.Bounds.Contains(p) {
			t.Fatalf("node outside bounds: %v", p)
		}
	}
	// Hotspot scatter should produce a above-uniform max degree most times;
	// just sanity check the graph is non-trivial.
	if nw.G.M() == 0 {
		t.Fatal("clustered placement produced no edges")
	}
}

func TestGenerateDeterministicPerSeed(t *testing.T) {
	a, err := Generate(Config{N: 40, Bounds: geom.Square(100), AvgDegree: 6}, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{N: 40, Bounds: geom.Square(100), AvgDegree: 6}, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Positions {
		if a.Positions[i] != b.Positions[i] {
			t.Fatal("same seed must give same placement")
		}
	}
	if a.G.M() != b.G.M() {
		t.Fatal("same seed must give same graph")
	}
}

func TestQuickGeneratedGraphIsUDG(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nw, err := Generate(Config{N: 25, Bounds: geom.Square(50), AvgDegree: 5}, r)
		if err != nil {
			return false
		}
		for u := 0; u < nw.N(); u++ {
			for v := u + 1; v < nw.N(); v++ {
				d := nw.Positions[u].Dist(nw.Positions[v])
				if (d <= nw.Radius) != nw.G.HasEdge(u, v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomWaypointStaysInBounds(t *testing.T) {
	r := rng.New(13)
	bounds := geom.Square(100)
	start := make([]geom.Point, 20)
	for i := range start {
		start[i] = geom.Point{X: r.Range(0, 100), Y: r.Range(0, 100)}
	}
	m := NewRandomWaypoint(start, bounds, 1, 10, 2, r)
	for step := 0; step < 200; step++ {
		for _, p := range m.Step(1.0) {
			if !bounds.Contains(p) {
				t.Fatalf("node escaped bounds: %v", p)
			}
		}
	}
}

func TestRandomWaypointMoves(t *testing.T) {
	r := rng.New(17)
	start := []geom.Point{{X: 50, Y: 50}}
	m := NewRandomWaypoint(start, geom.Square(100), 5, 5, 0, r)
	before := m.Positions()[0]
	m.Step(1)
	after := m.Positions()[0]
	if before.Dist(after) == 0 {
		t.Fatal("node with positive speed and no pause must move")
	}
	// Speed bound: at most speed*dt (plus a new leg after arrival, still
	// bounded by speed*dt in total distance along the trajectory; the
	// displacement can only be shorter).
	if before.Dist(after) > 5.0+1e-9 {
		t.Fatalf("node moved %g > speed*dt", before.Dist(after))
	}
}

func TestRandomWaypointPause(t *testing.T) {
	r := rng.New(19)
	// Start exactly at one corner with huge speed: the node arrives
	// immediately and then must pause.
	start := []geom.Point{{X: 0, Y: 0}}
	m := NewRandomWaypoint(start, geom.Square(10), 1000, 1000, 1000, r)
	m.Step(1) // arrives somewhere and enters pause
	p1 := m.Positions()[0]
	m.Step(1) // still paused (pause = 1000)
	p2 := m.Positions()[0]
	if p1.Dist(p2) != 0 {
		t.Fatalf("paused node moved from %v to %v", p1, p2)
	}
}

func TestRangeForDegreeSanity(t *testing.T) {
	// d=6, n=100, A=10000 → r ≈ 13.9 (well-known MANET setup number).
	r := geom.RangeForDegree(100, 10000, 6)
	if math.Abs(r-13.9) > 0.5 {
		t.Fatalf("range for d=6,n=100 = %.2f, expected ≈13.9", r)
	}
}

func BenchmarkGenerate100(b *testing.B) {
	r := rng.New(1)
	c := Config{N: 100, Bounds: geom.Square(100), AvgDegree: 18, RequireConnected: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(c, r); err != nil {
			b.Fatal(err)
		}
	}
}

// bruteForceUDG is the quadratic reference for the unit disk graph: row u
// lists, ascending, every other node within radius of u. It builds the
// rows directly, sharing no code with the graph package's assembly.
func bruteForceUDG(positions []geom.Point, radius float64) [][]int {
	rows := make([][]int, len(positions))
	for u, p := range positions {
		for v, q := range positions {
			if u != v && p.Dist(q) <= radius {
				rows[u] = append(rows[u], v)
			}
		}
	}
	return rows
}

// rowsConnected reports whether the adjacency rows connect all nodes, by a
// breadth-first search over the rows.
func rowsConnected(rows [][]int) bool {
	if len(rows) == 0 {
		return true
	}
	seen := make([]bool, len(rows))
	seen[0] = true
	queue := []int{0}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range rows[u] {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return !slices.Contains(seen, false)
}

// toInt32 narrows a reference row to the graph's four-byte IDs.
func toInt32(row []int) []int32 {
	out := make([]int32, len(row))
	for i, v := range row {
		out[i] = int32(v)
	}
	return out
}

// requireRows fails unless g's adjacency is exactly the reference rows.
func requireRows(t *testing.T, g *graph.Graph, want [][]int, ctx string) {
	t.Helper()
	edges := 0
	for _, row := range want {
		edges += len(row)
	}
	if g.N() != len(want) || 2*g.M() != edges {
		t.Fatalf("%s: got %d nodes %d edges, want %d/%d", ctx, g.N(), g.M(), len(want), edges/2)
	}
	for v := range want {
		if got := g.Neighbors(v); !slices.Equal(got, toInt32(want[v])) {
			t.Fatalf("%s: adjacency of %d differs: %v vs %v", ctx, v, got, want[v])
		}
	}
}

// TestFromPositionsMatchesBruteForce pins the grid-built unit disk graph,
// sequential and in 2 and 8 strips, to the O(n²) pairwise construction on
// random inputs of up to 2,000 nodes, including positions on the boundary
// and outside the nominal bounds, and the build's union-find connectivity
// verdict to a BFS over that construction, including inputs split by a
// gap wider than the range.
func TestFromPositionsMatchesBruteForce(t *testing.T) {
	r := rng.New(99)
	bounds := geom.Square(100)
	for trial := 0; trial < 31; trial++ {
		n := 5 + r.Intn(120)
		radius := 5 + r.Range(0, 30)
		if trial >= 25 {
			// Larger networks at paper-like densities: 6 to 24 neighbors.
			n = []int{500, 1000, 2000}[trial%3]
			radius = geom.RangeForDegree(n, bounds.Area(), 6+r.Range(0, 18))
		}
		positions := make([]geom.Point, n)
		for i := range positions {
			positions[i] = geom.Point{
				X: r.Range(bounds.MinX, bounds.MaxX),
				Y: r.Range(bounds.MinY, bounds.MaxY),
			}
		}
		// A few trials stress boundary and out-of-bounds placements.
		if trial%3 == 0 {
			positions[0] = geom.Point{X: bounds.MaxX, Y: bounds.MaxY}
			positions[n-1] = geom.Point{X: bounds.MaxX + 17, Y: bounds.MinY - 4}
		}
		// Others squeeze the nodes into two strips 50 apart, more than any
		// radius drawn here, with a node in each: surely disconnected.
		if trial%4 == 1 {
			for i := range positions {
				if x := positions[i].X; x < 50 {
					positions[i].X = x / 2
				} else {
					positions[i].X = 75 + (x-50)/2
				}
			}
			positions[0].X, positions[1].X = 10, 90
		}
		want := bruteForceUDG(positions, radius)
		wantConnected := rowsConnected(want)
		if trial%4 == 1 && wantConnected {
			t.Fatalf("trial %d: nodes split by a gap wider than the range are connected", trial)
		}
		for _, workers := range []int{0, 2, 8} {
			ctx := fmt.Sprintf("trial %d (n=%d r=%.2f workers=%d)", trial, n, radius, workers)
			ws := NewWorkspace()
			ws.BuildWorkers = workers
			g, err := ws.buildUnitDisk(positions, bounds, radius, true)
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			if connected := g != nil; connected != wantConnected {
				t.Fatalf("%s: union-find says connected=%v, BFS %v", ctx, connected, wantConnected)
			}
			requireRows(t, ws.FromPositions(positions, bounds, radius).G, want, ctx)
		}
	}
}
