package graph

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"clustercast/internal/rng"
)

// pathGraph returns the path 0-1-2-...-n−1.
func pathGraph(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// cycleGraph returns the n-cycle.
func cycleGraph(n int) *Graph {
	g := pathGraph(n)
	g.AddEdge(n-1, 0)
	return g
}

// starGraph returns a star with center 0 and n−1 leaves.
func starGraph(n int) *Graph {
	g := New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(0, i)
	}
	return g
}

// randomConnectedGraph builds a random connected graph: a random spanning
// tree plus extra random edges.
func randomConnectedGraph(r *rng.Stream, n, extraEdges int) *Graph {
	g := New(n)
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		g.AddEdge(perm[i], perm[r.Intn(i)])
	}
	for k := 0; k < extraEdges; k++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.AddEdge(u, v)
		}
	}
	return g
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 1)
	if g.N() != 4 || g.M() != 2 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge {0,1} missing or not symmetric")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("phantom edge {0,2}")
	}
	if got := g.Neighbors(1); !reflect.DeepEqual(got, []int32{0, 2}) {
		t.Fatalf("Neighbors(1) = %v, want sorted [0 2]", got)
	}
	if g.Degree(1) != 2 || g.Degree(3) != 0 {
		t.Fatal("degree wrong")
	}
}

func TestAddEdgeRejectsSelfLoop(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop must panic")
		}
	}()
	New(2).AddEdge(1, 1)
}

func TestAddEdgeRejectsDuplicate(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate edge must panic")
		}
	}()
	g.AddEdge(1, 0)
}

func TestHasEdgeOutOfRange(t *testing.T) {
	g := New(2)
	if g.HasEdge(-1, 0) || g.HasEdge(0, 7) {
		t.Fatal("out-of-range ids must report no edge")
	}
}

func TestDegreeStats(t *testing.T) {
	g := starGraph(5)
	if g.MaxDegree() != 4 {
		t.Fatalf("MaxDegree = %d", g.MaxDegree())
	}
	if got, want := g.AvgDegree(), 2.0*4/5; got != want {
		t.Fatalf("AvgDegree = %g, want %g", got, want)
	}
	if New(0).AvgDegree() != 0 || New(0).MaxDegree() != 0 {
		t.Fatal("empty graph stats should be 0")
	}
}

func TestBFSOnPath(t *testing.T) {
	g := pathGraph(5)
	dist := g.BFS(0)
	if !reflect.DeepEqual(dist, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("BFS = %v", dist)
	}
	dist = g.BFS(2)
	if !reflect.DeepEqual(dist, []int{2, 1, 0, 1, 2}) {
		t.Fatalf("BFS(2) = %v", dist)
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	dist := g.BFS(0)
	if dist[2] != -1 || dist[3] != -1 {
		t.Fatalf("unreachable nodes should have dist −1: %v", dist)
	}
}

func TestConnected(t *testing.T) {
	if !New(0).Connected() || !New(1).Connected() {
		t.Fatal("trivial graphs are connected")
	}
	if !cycleGraph(6).Connected() {
		t.Fatal("cycle is connected")
	}
	g := New(3)
	g.AddEdge(0, 1)
	if g.Connected() {
		t.Fatal("graph with isolated node is not connected")
	}
}

func TestComponents(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(4, 5)
	comps := g.Components()
	want := [][]int{{0, 1, 2}, {3}, {4, 5}}
	if !reflect.DeepEqual(comps, want) {
		t.Fatalf("Components = %v, want %v", comps, want)
	}
}

func TestDominatingSetPredicate(t *testing.T) {
	g := starGraph(5)
	if !g.IsDominatingSet(bitsetOf(5, 0)) {
		t.Fatal("center dominates the star")
	}
	if g.IsDominatingSet(bitsetOf(5, 1)) {
		t.Fatal("a single leaf does not dominate the star")
	}
	if !g.IsDominatingSet(bitsetOf(5, 1, 2, 3, 4, 0)) {
		t.Fatal("full set always dominates")
	}
	p := pathGraph(6)
	if !p.IsDominatingSet(bitsetOf(6, 1, 4)) {
		t.Fatal("{1,4} dominates the 6-path")
	}
	if p.IsDominatingSet(bitsetOf(6, 1)) {
		t.Fatal("{1} misses nodes 3..5")
	}
}

func TestInducedConnected(t *testing.T) {
	p := pathGraph(6)
	s := NewScratch(0)
	if !p.InducedConnected(s, bitsetOf(6, 1, 2, 3)) {
		t.Fatal("contiguous run of a path is connected")
	}
	if p.InducedConnected(s, bitsetOf(6, 1, 4)) {
		t.Fatal("{1,4} is disconnected in the path")
	}
	if !p.InducedConnected(s, bitsetOf(6)) || !p.InducedConnected(s, bitsetOf(6, 2)) {
		t.Fatal("0- and 1-element sets are connected")
	}
}

func TestIsCDS(t *testing.T) {
	p := pathGraph(6)
	if !p.IsCDSBits(bitsetOf(6, 1, 2, 3, 4)) {
		t.Fatal("{1,2,3,4} is a CDS of the 6-path")
	}
	if p.IsCDSBits(bitsetOf(6, 1, 4)) {
		t.Fatal("{1,4} dominates but is not connected")
	}
	if p.IsCDSBits(bitsetOf(6, 0, 1, 2)) {
		t.Fatal("{0,1,2} is connected but leaves nodes 4 and 5 undominated")
	}
	// The map form ignores entries explicitly set to false.
	if !p.IsCDS(map[int]bool{1: true, 2: true, 3: true, 4: true, 5: false}) {
		t.Fatal("false entries must not count as members")
	}
	if p.IsCDS(map[int]bool{1: true, 2: true, 3: false, 4: true}) {
		t.Fatal("a false entry must not connect {1,2} to {4}")
	}
}

func TestIsIndependentSet(t *testing.T) {
	p := pathGraph(5)
	if !p.IsIndependentSet(bitsetOf(5, 0, 2, 4)) {
		t.Fatal("{0,2,4} is independent in the 5-path")
	}
	if p.IsIndependentSet(bitsetOf(5, 0, 1)) {
		t.Fatal("{0,1} is not independent")
	}
	if !p.IsIndependentSet(bitsetOf(5)) {
		t.Fatal("empty set is independent")
	}
}

func TestEccentricityAndDiameter(t *testing.T) {
	p := pathGraph(5)
	if e := p.Eccentricity(0); e != 4 {
		t.Fatalf("Eccentricity(0) = %d", e)
	}
	if e := p.Eccentricity(2); e != 2 {
		t.Fatalf("Eccentricity(2) = %d", e)
	}
	if d := p.Diameter(); d != 4 {
		t.Fatalf("Diameter = %d", d)
	}
	if d := cycleGraph(6).Diameter(); d != 3 {
		t.Fatalf("cycle diameter = %d", d)
	}
	g := New(3)
	g.AddEdge(0, 1)
	if g.Diameter() != -1 || g.Eccentricity(0) != -1 {
		t.Fatal("disconnected graph must report −1")
	}
}

// bruteDiameter is the diameter by definition: the largest eccentricity
// over every node, each from its own BFS, and −1 when some node is
// unreachable.
func bruteDiameter(g *Graph) int {
	diam := 0
	for v := 0; v < g.N(); v++ {
		for _, d := range g.BFS(v) {
			if d == -1 {
				return -1
			}
			diam = max(diam, d)
		}
	}
	return diam
}

// The bounding-diameters search agrees with the definition on paths,
// stars, cycles, trees, sparse and dense random graphs, and disconnected
// graphs, at every size from the empty graph up.
func TestDiameterMatchesBruteForce(t *testing.T) {
	r := rng.New(41)
	var gs []*Graph
	for n := 0; n <= 40; n++ {
		gs = append(gs, New(n), pathGraph(n))
		if n >= 1 {
			gs = append(gs, starGraph(n), randomConnectedGraph(r, n, 0), randomConnectedGraph(r, n, n/3),
				randomConnectedGraph(r, n, 3*n))
		}
		if n >= 3 {
			gs = append(gs, cycleGraph(n))
		}
		if n >= 2 {
			// Two components: a random connected part and a path.
			k := 1 + r.Intn(n-1)
			g := New(n)
			for _, e := range randomConnectedGraph(r, k, k).Edges() {
				g.AddEdge(e[0], e[1])
			}
			for v := k; v+1 < n; v++ {
				g.AddEdge(v, v+1)
			}
			gs = append(gs, g)
		}
	}
	for i := 0; i < 200; i++ {
		gs = append(gs, randomConnectedGraph(r, 50+r.Intn(150), r.Intn(400)))
	}
	// Unit-disk graphs, the simulator's topologies, connected or not.
	for i := 0; i < 60; i++ {
		n, rad := 30+r.Intn(120), 0.1+0.2*r.Float64()
		xs, ys := make([]float64, n), make([]float64, n)
		for v := range xs {
			xs[v], ys[v] = r.Float64(), r.Float64()
		}
		g := New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if dx, dy := xs[u]-xs[v], ys[u]-ys[v]; dx*dx+dy*dy < rad*rad {
					g.AddEdge(u, v)
				}
			}
		}
		gs = append(gs, g)
	}
	for i, g := range gs {
		if got, want := g.Diameter(), bruteDiameter(g); got != want {
			t.Fatalf("graph %d (n=%d m=%d): Diameter = %d, by definition %d", i, g.N(), g.M(), got, want)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := pathGraph(4)
	c := g.Clone()
	c.AddEdge(0, 3)
	if g.HasEdge(0, 3) {
		t.Fatal("mutating the clone affected the original")
	}
	if g.M() != 3 || c.M() != 4 {
		t.Fatalf("edge counts wrong: %d, %d", g.M(), c.M())
	}
}

func TestEdgesSortedAndComplete(t *testing.T) {
	g := New(4)
	g.AddEdge(2, 3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 3)
	want := [][2]int{{0, 1}, {1, 3}, {2, 3}}
	if got := g.Edges(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Edges = %v, want %v", got, want)
	}
}

func TestDOTDeterministic(t *testing.T) {
	g := pathGraph(3)
	d1 := g.DOT("g", bitsetOf(3, 1))
	d2 := g.DOT("g", bitsetOf(3, 1))
	if d1 != d2 {
		t.Fatal("DOT output must be deterministic")
	}
	if !strings.Contains(d1, "0 -- 1") || !strings.Contains(d1, "fillcolor=black") {
		t.Fatalf("DOT output missing expected content:\n%s", d1)
	}
}

func TestFromEdges(t *testing.T) {
	g := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	if g.M() != 3 || !g.Connected() {
		t.Fatal("FromEdges built wrong graph")
	}
}

func TestFromEdgesRejectsSelfLoop(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop must panic")
		}
	}()
	FromEdges(3, [][2]int{{0, 1}, {2, 2}})
}

// A repeated edge panics whichever way round it is listed again.
func TestFromEdgesRejectsDuplicate(t *testing.T) {
	for _, edges := range [][][2]int{
		{{0, 1}, {1, 2}, {0, 1}},
		{{0, 1}, {1, 2}, {2, 1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("duplicate edge in %v must panic", edges)
				}
			}()
			FromEdges(3, edges)
		}()
	}
}

// On random edge lists in random order, every FromEdges row is strictly
// ascending and holds exactly the listed neighbors.
func TestFromEdgesRowsAscending(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(60)
		want := make([]map[int]bool, n)
		for u := range want {
			want[u] = map[int]bool{}
		}
		var edges [][2]int
		for k := r.Intn(4 * n); k > 0; k-- {
			u, v := r.Intn(n), r.Intn(n)
			if u != v && !want[u][v] {
				want[u][v], want[v][u] = true, true
				edges = append(edges, [2]int{u, v})
			}
		}
		g := FromEdges(n, edges)
		if g.M() != len(edges) {
			t.Fatalf("trial %d: %d edges, want %d", trial, g.M(), len(edges))
		}
		for u := 0; u < n; u++ {
			row := g.Neighbors(u)
			if len(row) != len(want[u]) {
				t.Fatalf("trial %d: row %d is %v, want the %d neighbors %v", trial, u, row, len(want[u]), want[u])
			}
			for i, v := range row {
				if !want[u][int(v)] || i > 0 && row[i-1] >= v {
					t.Fatalf("trial %d: row %d is %v, want ascending %v", trial, u, row, want[u])
				}
			}
		}
	}
}

// Property: on random connected graphs, the full node set is a CDS and BFS
// distances satisfy the edge relaxation property.
func TestQuickRandomGraphInvariants(t *testing.T) {
	f := func(seed uint64, sz uint8) bool {
		n := int(sz)%40 + 2
		r := rng.New(seed)
		g := randomConnectedGraph(r, n, n/2)
		all := NewBitset(n)
		for i := 0; i < n; i++ {
			all.Add(i)
		}
		if !g.IsCDSBits(all) {
			return false
		}
		dist := g.BFS(0)
		for _, e := range g.Edges() {
			d := dist[e[0]] - dist[e[1]]
			if d < -1 || d > 1 {
				return false
			}
		}
		return g.Connected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestHopDistMatchesBFS: HopDist(src, dst) is BFS(src)[dst] for every
// pair of random graphs, sparse ones included, whose unreachable pairs
// read −1; a steady-state call allocates nothing (the race detector makes
// sync.Pool drop entries, so the count is checked only without it).
func TestHopDistMatchesBFS(t *testing.T) {
	r := rng.New(17)
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(40)
		g := New(n)
		for k := r.Intn(2 * n); k > 0; k-- { // often disconnected
			u, v := r.Intn(n), r.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				g.AddEdge(u, v)
			}
		}
		for src := 0; src < n; src++ {
			dist := g.BFS(src)
			for dst := 0; dst < n; dst++ {
				if got := g.HopDist(src, dst); got != dist[dst] {
					t.Fatalf("trial %d (n=%d): HopDist(%d, %d) = %d, BFS says %d", trial, n, src, dst, got, dist[dst])
				}
			}
		}
	}
	g := randomConnectedGraph(r, 300, 600)
	if avg := testing.AllocsPerRun(50, func() { g.HopDist(0, 299) }); avg != 0 && !raceDetector {
		t.Fatalf("HopDist allocates %.1f/call, want 0", avg)
	}
}

func BenchmarkBFS(b *testing.B) {
	r := rng.New(1)
	g := randomConnectedGraph(r, 1000, 3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.BFS(i % 1000)
	}
}
