package backbone

import (
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/geom"
	"clustercast/internal/graph"
	"clustercast/internal/rng"
	"clustercast/internal/topology"
)

// paperGraph builds the 10-node network of the paper's Figure 3, 0-based.
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

func TestPaperGatewaySelections(t *testing.T) {
	g := paperGraph()
	cl := cluster.LowestID(g)
	b := coverage.NewBuilder(g, cl, coverage.Hop25)
	// Paper: GATEWAY(1)={6,7}, GATEWAY(2)={6,8}, GATEWAY(3)={7,8,9},
	// GATEWAY(4)={5,9}. (0-based: subtract 1.)
	want := map[int][]int{
		0: {5, 6},
		1: {5, 7},
		2: {6, 7, 8},
		3: {4, 8},
	}
	for head, gws := range want {
		sel := SelectGateways(b.Of(head), nil, nil)
		if !reflect.DeepEqual(sel.Gateways, gws) {
			t.Errorf("GATEWAY(%d) = %v, want %v (paper head %d)", head, sel.Gateways, gws, head+1)
		}
	}
}

func TestPaperStaticBackbone(t *testing.T) {
	g := paperGraph()
	cl := cluster.LowestID(g)
	s := BuildStatic(g, cl, coverage.Hop25)
	// Paper: the 2.5-hop static backbone consists of nodes 1..9
	// (0-based 0..8); node 10 (0-based 9) stays out.
	want := graph.SetOf(0, 1, 2, 3, 4, 5, 6, 7, 8)
	if !reflect.DeepEqual(s.Nodes, want) {
		t.Fatalf("backbone = %v, want %v",
			graph.SortedMembers(s.Nodes), graph.SortedMembers(want))
	}
	if s.Size() != 9 || s.GatewayCount() != 5 {
		t.Fatalf("Size=%d GatewayCount=%d", s.Size(), s.GatewayCount())
	}
	if err := s.Verify(g); err != nil {
		t.Fatal(err)
	}
}

func TestPaperStaticBackbone3Hop(t *testing.T) {
	g := paperGraph()
	cl := cluster.LowestID(g)
	s := BuildStatic(g, cl, coverage.Hop3)
	if err := s.Verify(g); err != nil {
		t.Fatal(err)
	}
	if !g.IsCDS(s.Nodes) {
		t.Fatal("3-hop static backbone must be a CDS")
	}
}

func TestSelectGatewaysIndirectTieBreak(t *testing.T) {
	// Head 4's selection (paper): both 9 and 10 directly cover clusterhead
	// 3, but 9 also indirectly covers clusterhead 1, so 9 must win the tie
	// and relay 5 must be co-selected.
	g := paperGraph()
	cl := cluster.LowestID(g)
	b := coverage.NewBuilder(g, cl, coverage.Hop25)
	sel := SelectGateways(b.Of(3), nil, nil)
	if !reflect.DeepEqual(sel.Gateways, []int{4, 8}) {
		t.Fatalf("head 4 gateways = %v, want [4 8] (paper {5,9})", sel.Gateways)
	}
	two, three := reach(g, 3, sel.Gateways)
	if !two.Has(2) || !three.Has(0) {
		t.Fatalf("head 4 must connect clusterhead 3 in two hops and 1 in three: %v, %v", two.Members(), three.Members())
	}
	if missed := unconnected(g, b.Of(3), sel.Gateways); len(missed) > 0 {
		t.Fatalf("head 4 leaves targets %v unconnected", missed)
	}
}

// reach returns the nodes that gateways gws connect head h to: two holds
// the neighbors of a selected neighbor of h, three the neighbors of a
// selected node adjacent to a selected neighbor of h.
func reach(g *graph.Graph, h int, gws []int) (two, three *graph.Bitset) {
	sel := graph.NewBitset(g.N())
	for _, v := range gws {
		sel.Add(v)
	}
	two, three = graph.NewBitset(g.N()), graph.NewBitset(g.N())
	for _, v := range g.Neighbors(h) {
		if !sel.Has(v) {
			continue
		}
		for _, r := range g.Neighbors(v) {
			two.Add(r)
			if !sel.Has(r) {
				continue
			}
			for _, w := range g.Neighbors(r) {
				three.Add(w)
			}
		}
	}
	return two, three
}

// unconnected returns the targets of cov that gateways gws leave
// unconnected: each w ∈ C² needs a selected gateway adjacent to both the
// head and w, each w ∈ C³ a selected gateway or (gateway, relay) pair.
func unconnected(g *graph.Graph, cov *coverage.Coverage, gws []int) []int {
	two, three := reach(g, cov.Head, gws)
	var missed []int
	cov.C2.ForEach(func(w int) {
		if !two.Has(w) {
			missed = append(missed, w)
		}
	})
	cov.C3.ForEach(func(w int) {
		if !two.Has(w) && !three.Has(w) {
			missed = append(missed, w)
		}
	})
	return missed
}

func TestSelectGatewaysRestrictedNeed(t *testing.T) {
	// The dynamic backbone passes pruned target sets. With an empty need,
	// no gateways are selected.
	g := paperGraph()
	cl := cluster.LowestID(g)
	b := coverage.NewBuilder(g, cl, coverage.Hop25)
	sel := SelectGateways(b.Of(2), graph.NewSparseSet(10), graph.NewSparseSet(10))
	if len(sel.Gateways) != 0 {
		t.Fatalf("empty need must select nothing, got %v", sel.Gateways)
	}
	// Restricting head 3's need to clusterhead 4 only: select node 9
	// (lowest ID covering 4; paper example for the dynamic broadcast).
	sel = SelectGateways(b.Of(2), sparseOf(10, 3), nil)
	if !reflect.DeepEqual(sel.Gateways, []int{8}) {
		t.Fatalf("restricted selection = %v, want [8] (paper node 9)", sel.Gateways)
	}
}

// sparseOf returns a set over 0..n−1 holding the given ids.
func sparseOf(n int, ids ...int) *graph.SparseSet {
	s := graph.NewSparseSet(n)
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

func TestSelectGatewaysNeedOutsideCoverageIgnored(t *testing.T) {
	g := paperGraph()
	cl := cluster.LowestID(g)
	b := coverage.NewBuilder(g, cl, coverage.Hop25)
	// Node 9 is neither a clusterhead nor in C(1); it must be ignored.
	sel := SelectGateways(b.Of(0), sparseOf(10, 9), sparseOf(10, 9))
	if len(sel.Gateways) != 0 {
		t.Fatalf("targets outside the coverage set must be ignored: %+v", sel)
	}
}

func TestStaticLineTopology(t *testing.T) {
	// A chain forces clusters in a row; the backbone must still be a CDS.
	nw := topology.LineTopology(20, 1.0, 1.2)
	cl := cluster.LowestID(nw.G)
	for _, mode := range []coverage.Mode{coverage.Hop25, coverage.Hop3} {
		s := BuildStatic(nw.G, cl, mode)
		if err := s.Verify(nw.G); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
	}
}

func TestStaticSingleCluster(t *testing.T) {
	// A star: one cluster, no gateways needed.
	g := graph.FromEdges(5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	cl := cluster.LowestID(g)
	s := BuildStatic(g, cl, coverage.Hop25)
	if s.Size() != 1 || s.GatewayCount() != 0 {
		t.Fatalf("single-cluster backbone should be just the head: %v",
			graph.SortedMembers(s.Nodes))
	}
	if err := s.Verify(g); err != nil {
		t.Fatal(err)
	}
}

// Property (Theorem 1): on random connected unit disk graphs the static
// backbone is a CDS, for both coverage modes.
func TestQuickStaticIsCDS(t *testing.T) {
	check := func(seed uint64, mode coverage.Mode, n int, deg float64) bool {
		r := rng.New(seed)
		nw, err := topology.Generate(topology.Config{
			N: n, Bounds: geom.Square(100), AvgDegree: deg,
			RequireConnected: true, MaxAttempts: 300,
		}, r)
		if err != nil {
			return true // skip impossible configs
		}
		cl := cluster.LowestID(nw.G)
		s := BuildStatic(nw.G, cl, mode)
		return nw.G.IsCDS(s.Nodes)
	}
	f := func(seed uint64, dense bool) bool {
		deg := 6.0
		if dense {
			deg = 18.0
		}
		return check(seed, coverage.Hop25, 50, deg) && check(seed, coverage.Hop3, 50, deg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: every head's selection covers its entire coverage set, and all
// selected gateways are non-clusterheads within 2 hops of the head.
func TestQuickSelectionsCoverEverything(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nw, err := topology.Generate(topology.Config{
			N: 45, Bounds: geom.Square(100), AvgDegree: 8,
			RequireConnected: true, MaxAttempts: 300,
		}, r)
		if err != nil {
			return true
		}
		cl := cluster.LowestID(nw.G)
		b := coverage.NewBuilder(nw.G, cl, coverage.Hop25)
		for _, h := range cl.Heads {
			cov := b.Of(h)
			sel := SelectGateways(cov, nil, nil)
			if len(unconnected(nw.G, cov, sel.Gateways)) > 0 {
				return false
			}
			dist := nw.G.BFS(h)
			for _, v := range sel.Gateways {
				if cl.IsHead(v) || dist[v] > 2 || dist[v] < 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the greedy backbone is never larger than the naive
// heads+all-gateways backbone (the selection only prunes).
func TestQuickStaticSmallerThanNaive(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nw, err := topology.Generate(topology.Config{
			N: 50, Bounds: geom.Square(100), AvgDegree: 10,
			RequireConnected: true, MaxAttempts: 300,
		}, r)
		if err != nil {
			return true
		}
		cl := cluster.LowestID(nw.G)
		s := BuildStatic(nw.G, cl, coverage.Hop25)
		naive := cl.HeadSet()
		for v := range cl.Gateways(nw.G) {
			naive[v] = true
		}
		return s.Size() <= graph.SetSize(naive)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The 2.5-hop and 3-hop static backbones are close in size — the paper
// reports <2% average difference. Individual instances can diverge more
// (small backbones quantize hard), so the comparison is on the mean.
func TestModesComparableSizeOnAverage(t *testing.T) {
	root := rng.New(77)
	var sum25, sum3 int
	const samples = 40
	for i := 0; i < samples; i++ {
		nw, err := topology.Generate(topology.Config{
			N: 60, Bounds: geom.Square(100), AvgDegree: 12,
			RequireConnected: true, MaxAttempts: 300,
		}, root)
		if err != nil {
			t.Fatal(err)
		}
		cl := cluster.LowestID(nw.G)
		sum25 += BuildStatic(nw.G, cl, coverage.Hop25).Size()
		sum3 += BuildStatic(nw.G, cl, coverage.Hop3).Size()
	}
	diff := sum25 - sum3
	if diff < 0 {
		diff = -diff
	}
	if diff*10 > sum3 {
		t.Fatalf("mode mean sizes diverge >10%%: 2.5-hop %d vs 3-hop %d over %d samples",
			sum25, sum3, samples)
	}
	t.Logf("mean sizes over %d samples: 2.5-hop=%.2f, 3-hop=%.2f (diff %.1f%%)",
		samples, float64(sum25)/samples, float64(sum3)/samples,
		100*float64(diff)/float64(sum3))
}

func BenchmarkBuildStatic100(b *testing.B) {
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
		_ = BuildStatic(nw.G, cl, coverage.Hop25)
	}
}

// allocPerNode returns the bytes one warm call of build allocates, per
// node of an n-node, degree-18 unit-disk network (seed 5) and its
// lowest-ID clustering.
func allocPerNode(t *testing.T, n int, build func(*graph.Graph, *cluster.Clustering)) float64 {
	t.Helper()
	nw, err := topology.Generate(topology.Config{
		N: n, Bounds: geom.Square(100), AvgDegree: 18, RequireConnected: true, MaxAttempts: 50,
	}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.LowestID(nw.G)
	build(nw.G, cl)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	build(nw.G, cl)
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestBuildStaticAllocLinear: the static backbone allocates O(n) bytes,
// not Θ(n) per clusterhead. Its head loop holds one selection scratch,
// so the bytes per node stay flat as n grows fourfold.
func TestBuildStaticAllocLinear(t *testing.T) {
	build := func(g *graph.Graph, cl *cluster.Clustering) { BuildStatic(g, cl, coverage.Hop25) }
	small, large := allocPerNode(t, 2000, build), allocPerNode(t, 8000, build)
	if large > 1.5*small {
		t.Fatalf("BuildStatic allocates %.0f B/node at n=8000 but %.0f B/node at n=2000 (%.1fx, want <= 1.5x)",
			large, small, large/small)
	}
}
