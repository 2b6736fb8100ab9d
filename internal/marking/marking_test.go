package marking

import (
	"slices"
	"testing"
	"testing/quick"

	"clustercast/internal/geom"
	"clustercast/internal/graph"
	"clustercast/internal/rng"
	"clustercast/internal/topology"
)

func pathGraph(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func TestMarkingPath(t *testing.T) {
	// On a path every interior node has two non-adjacent neighbors; the
	// rules cannot prune (no closed-neighborhood containment on a path of
	// distinct interior nodes), so the CDS is the n−2 interior nodes.
	g := pathGraph(6)
	set := Build(g)
	if set.Count() != 4 {
		t.Fatalf("path CDS = %v, want interior nodes", set.Members())
	}
	if set.Has(0) || set.Has(5) {
		t.Fatal("endpoints must not be marked")
	}
	if !g.IsCDSBits(set) {
		t.Fatal("marking on a path must yield a CDS")
	}
}

func TestMarkingCompleteGraph(t *testing.T) {
	g := graph.New(4)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			g.AddEdge(u, v)
		}
	}
	set := Build(g)
	if set.Count() != 1 {
		t.Fatalf("complete graph fallback: %v", set.Members())
	}
	if !g.IsCDSBits(set) {
		t.Fatal("fallback must still be a CDS")
	}
}

func TestMarkingStar(t *testing.T) {
	g := graph.FromEdges(5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	set := Build(g)
	if set.Count() != 1 || !set.Has(0) {
		t.Fatalf("star CDS = %v, want {0}", set.Members())
	}
}

func TestRule1Prunes(t *testing.T) {
	// Two adjacent centers with identical leaf coverage: 0 and 1 both see
	// leaves 2,3; N[0] ⊆ N[1], id 0 < 1 → 0 unmarks, 1 stays.
	g := graph.FromEdges(4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}})
	set := Build(g)
	if set.Has(0) {
		t.Fatalf("Rule 1 should have unmarked node 0: %v", set.Members())
	}
	if !set.Has(1) {
		t.Fatal("node 1 must stay marked")
	}
	if !g.IsCDSBits(set) {
		t.Fatal("result must be a CDS")
	}
}

func TestMarkingEmptyAndSingle(t *testing.T) {
	if got := Build(graph.New(0)); got.Count() != 0 {
		t.Fatal("empty graph")
	}
	if got := Build(graph.New(1)); got.Count() != 1 {
		t.Fatal("single node must dominate itself")
	}
}

// Property: the marking process yields a CDS on random connected networks
// and never exceeds the full node set.
func TestQuickMarkingIsCDS(t *testing.T) {
	f := func(seed uint64, dense bool) bool {
		deg := 6.0
		if dense {
			deg = 18.0
		}
		r := rng.New(seed)
		nw, err := topology.Generate(topology.Config{
			N: 50, Bounds: geom.Square(100), AvgDegree: deg,
			RequireConnected: true, MaxAttempts: 400,
		}, r)
		if err != nil {
			return true
		}
		set := Build(nw.G)
		return nw.G.IsCDSBits(set) && set.Count() <= nw.G.N()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Rules 1+2 only shrink the plain marking.
func TestQuickRulesOnlyShrink(t *testing.T) {
	plainMarking := func(g *graph.Graph) int {
		nbr := make([]map[int]bool, g.N())
		for v := 0; v < g.N(); v++ {
			m := make(map[int]bool)
			for _, u := range g.Neighbors(v) {
				m[int(u)] = true
			}
			nbr[v] = m
		}
		count := 0
		for v := 0; v < g.N(); v++ {
			list := g.Neighbors(v)
			found := false
			for i := 0; i < len(list) && !found; i++ {
				for j := i + 1; j < len(list); j++ {
					if !nbr[int(list[i])][int(list[j])] {
						found = true
						break
					}
				}
			}
			if found {
				count++
			}
		}
		return count
	}
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nw, err := topology.Generate(topology.Config{
			N: 40, Bounds: geom.Square(100), AvgDegree: 10,
			RequireConnected: true, MaxAttempts: 400,
		}, r)
		if err != nil {
			return true
		}
		pruned := Build(nw.G).Count()
		plain := plainMarking(nw.G)
		if plain == 0 {
			return pruned == 1 // complete-graph fallback
		}
		return pruned <= plain
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMarking100(b *testing.B) {
	r := rng.New(1)
	nw, err := topology.Generate(topology.Config{
		N: 100, Bounds: geom.Square(100), AvgDegree: 18, RequireConnected: true,
	}, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Build(nw.G)
	}
}

// buildMaps is the map form of Build, kept as its reference: the same
// marking and rules over per-node neighbor maps.
func buildMaps(g *graph.Graph) map[int]bool {
	n := g.N()
	if n == 0 {
		return map[int]bool{}
	}
	nbr := make([]map[int]bool, n)
	for v := 0; v < n; v++ {
		m := make(map[int]bool, g.Degree(v))
		for _, u := range g.Neighbors(v) {
			m[int(u)] = true
		}
		nbr[v] = m
	}
	marked := make(map[int]bool)
	for v := 0; v < n; v++ {
		list := g.Neighbors(v)
		for i := 0; i < len(list) && !marked[v]; i++ {
			for j := i + 1; j < len(list); j++ {
				if !nbr[int(list[i])][int(list[j])] {
					marked[v] = true
					break
				}
			}
		}
	}
	closedSubset := func(v, u int) bool {
		if !nbr[u][v] {
			return false
		}
		for _, x32 := range g.Neighbors(v) {
			x := int(x32)
			if x != u && !nbr[u][x] {
				return false
			}
		}
		return true
	}
	for v := 0; v < n; v++ {
		if !marked[v] {
			continue
		}
		for _, u32 := range g.Neighbors(v) {
			u := int(u32)
			if marked[u] && u > v && closedSubset(v, u) {
				delete(marked, v)
				break
			}
		}
	}
	for v := 0; v < n; v++ {
		if !marked[v] {
			continue
		}
		var cand []int
		for _, u32 := range g.Neighbors(v) {
			u := int(u32)
			if marked[u] && u > v {
				cand = append(cand, u)
			}
		}
	rule2:
		for i := 0; i < len(cand); i++ {
			for j := i + 1; j < len(cand); j++ {
				u, w := cand[i], cand[j]
				if !nbr[u][w] {
					continue
				}
				covered := true
				for _, x32 := range g.Neighbors(v) {
					x := int(x32)
					if x != u && x != w && !nbr[u][x] && !nbr[w][x] {
						covered = false
						break
					}
				}
				if covered {
					delete(marked, v)
					break rule2
				}
			}
		}
	}
	if len(marked) == 0 {
		marked[0] = true
	}
	return marked
}

// sortedKeys returns the members of a map-form set, ascending.
func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for v, in := range set {
		if in {
			out = append(out, v)
		}
	}
	slices.Sort(out)
	return out
}

// TestBuildMatchesMapOracle: Build equals its map form on random unit-disk
// graphs at d = 4, 10 and 18 (connected or not) and on hand-made shapes:
// a path, a star, a clique, two cliques joined by a bridge, and a graph
// with an isolated node.
func TestBuildMatchesMapOracle(t *testing.T) {
	var graphs []*graph.Graph
	for _, d := range []float64{4, 10, 18} {
		for seed := uint64(1); seed <= 4; seed++ {
			nw, err := topology.Generate(topology.Config{N: 80, Bounds: geom.Square(100), AvgDegree: d}, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			graphs = append(graphs, nw.G)
		}
	}
	var k4, bridged [][2]int
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			k4 = append(k4, [2]int{u, v})
			bridged = append(bridged, [2]int{u, v}, [2]int{u + 4, v + 4})
		}
	}
	graphs = append(graphs,
		pathGraph(7),
		graph.FromEdges(6, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}}),
		graph.FromEdges(4, k4),
		graph.FromEdges(8, append(bridged, [2]int{3, 4})),
		graph.FromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {1, 4}}),
	)
	for i, g := range graphs {
		got, want := Build(g).Members(), sortedKeys(buildMaps(g))
		if !slices.Equal(got, want) {
			t.Fatalf("graph %d: Build = %v, map form %v", i, got, want)
		}
	}
}
