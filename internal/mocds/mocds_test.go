package mocds

import (
	"testing"
	"testing/quick"

	"clustercast/internal/backbone"
	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/geom"
	"clustercast/internal/graph"
	"clustercast/internal/rng"
	"clustercast/internal/topology"
)

func paperGraph() *graph.Graph {
	edges := [][2]int{
		{1, 5}, {1, 6}, {1, 7}, {2, 6}, {2, 8},
		{3, 7}, {3, 8}, {3, 9}, {3, 10}, {4, 9}, {4, 10}, {5, 9},
	}
	zero := make([][2]int, len(edges))
	for i, e := range edges {
		zero[i] = [2]int{e[0] - 1, e[1] - 1}
	}
	return graph.FromEdges(10, zero)
}

// mapCDS is the MO_CDS folded into maps, the reference the workspace
// fold is held to.
type mapCDS struct {
	// Nodes is the CDS membership: clusterheads plus selected connectors.
	Nodes map[int]bool
	// Connectors2[h][w] is the node h selected to reach 2-hop clusterhead w.
	Connectors2 map[int]map[int]int
	// Connectors3[h][w] is the pair (gateway, relay) h selected to reach
	// 3-hop clusterhead w.
	Connectors3 map[int]map[int][2]int
}

// buildMaps folds every head's coverage set into maps: one connector per
// 2-hop clusterhead, the lowest-ID neighbor that reaches it, and one pair
// per 3-hop clusterhead, the lexicographically smallest (gateway, relay).
func buildMaps(b *coverage.Builder, cl *cluster.Clustering) *mapCDS {
	c := &mapCDS{
		Nodes:       make(map[int]bool),
		Connectors2: make(map[int]map[int]int),
		Connectors3: make(map[int]map[int][2]int),
	}
	for _, h := range cl.Heads {
		c.Nodes[h] = true
		cov := b.Of(h)
		con2 := make(map[int]int, len(cov.C2))
		for i, cn := range cov.Conns {
			direct, _ := cov.Runs(i)
			for _, w := range direct {
				if prev, ok := con2[int(w)]; !ok || int(cn.V) < prev {
					con2[int(w)] = int(cn.V)
				}
			}
		}
		for _, v := range con2 {
			c.Nodes[v] = true
		}
		c.Connectors2[h] = con2
		con3 := make(map[int][2]int, len(cov.C3))
		for i, cn := range cov.Conns {
			_, indirect := cov.Runs(i)
			for _, e := range indirect {
				pair := [2]int{int(cn.V), int(e.R)}
				if prev, ok := con3[int(e.W)]; !ok || pair[0] < prev[0] || pair[0] == prev[0] && pair[1] < prev[1] {
					con3[int(e.W)] = pair
				}
			}
		}
		for _, pair := range con3 {
			c.Nodes[pair[0]] = true
			c.Nodes[pair[1]] = true
		}
		c.Connectors3[h] = con3
	}
	return c
}

func TestBuildPaperGraph(t *testing.T) {
	g := paperGraph()
	cl := cluster.LowestID(g)
	c := Build(g, cl)
	// All four heads present.
	for _, h := range []int{0, 1, 2, 3} {
		if !c.Has(h) {
			t.Fatalf("head %d missing from MO_CDS", h)
		}
	}
	if !g.IsCDSBits(c) {
		t.Fatal("MO_CDS must be a CDS")
	}
}

func TestConnectorsAreValidPaths(t *testing.T) {
	g := paperGraph()
	cl := cluster.LowestID(g)
	c := buildMaps(coverage.NewBuilder(g, cl, coverage.Hop3), cl)
	for h, con2 := range c.Connectors2 {
		for w, v := range con2 {
			if !g.HasEdge(h, v) || !g.HasEdge(v, w) {
				t.Fatalf("2-hop connector %d for %d→%d is not a path", v, h, w)
			}
		}
	}
	for h, con3 := range c.Connectors3 {
		for w, pair := range con3 {
			if !g.HasEdge(h, pair[0]) || !g.HasEdge(pair[0], pair[1]) || !g.HasEdge(pair[1], w) {
				t.Fatalf("3-hop pair %v for %d→%d is not a path", pair, h, w)
			}
		}
	}
}

func TestRequiresHop3Builder(t *testing.T) {
	g := paperGraph()
	cl := cluster.LowestID(g)
	b := coverage.NewBuilder(g, cl, coverage.Hop25)
	defer func() {
		if recover() == nil {
			t.Fatal("NodesFrom must reject a 2.5-hop builder")
		}
	}()
	NewWorkspace().NodesFrom(b, cl)
}

func TestSingleCluster(t *testing.T) {
	g := graph.FromEdges(4, [][2]int{{0, 1}, {0, 2}, {0, 3}})
	cl := cluster.LowestID(g)
	c := Build(g, cl)
	if c.Count() != 1 {
		t.Fatalf("single-cluster MO_CDS should be the head only, got %v", c.Members())
	}
}

// Property: MO_CDS is a CDS on random connected networks.
func TestQuickIsCDS(t *testing.T) {
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
		return nw.G.IsCDSBits(Build(nw.G, cluster.LowestID(nw.G)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Figure 6's shape: averaged over instances, the greedy static backbone is
// no larger than MO_CDS built over the same clustering — the paper reports
// the static backbone as (insignificantly) better. A single instance can go
// either way (both are heuristics), so the comparison is on the mean.
func TestStaticBackboneBeatsMOCDSOnAverage(t *testing.T) {
	root := rng.New(20030422)
	var sumMO, sumStatic int
	const samples = 40
	for i := 0; i < samples; i++ {
		nw, err := topology.Generate(topology.Config{
			N: 60, Bounds: geom.Square(100), AvgDegree: 12,
			RequireConnected: true, MaxAttempts: 400,
		}, root)
		if err != nil {
			t.Fatal(err)
		}
		cl := cluster.LowestID(nw.G)
		sumMO += Build(nw.G, cl).Count()
		sumStatic += backbone.BuildStatic(nw.G, cl, coverage.Hop3).Size()
	}
	if sumStatic > sumMO {
		t.Fatalf("static backbone mean size %.2f exceeds MO_CDS mean %.2f over %d samples",
			float64(sumStatic)/samples, float64(sumMO)/samples, samples)
	}
	t.Logf("mean sizes over %d samples: static=%.2f mo_cds=%.2f",
		samples, float64(sumStatic)/samples, float64(sumMO)/samples)
}

func BenchmarkBuild100(b *testing.B) {
	r := rng.New(1)
	nw, err := topology.Generate(topology.Config{
		N: 100, Bounds: geom.Square(100), AvgDegree: 18, RequireConnected: true,
	}, r)
	if err != nil {
		b.Fatal(err)
	}
	cl := cluster.LowestID(nw.G)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Build(nw.G, cl)
	}
}
