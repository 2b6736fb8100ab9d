package fwdtree

import (
	"testing"
	"testing/quick"

	"clustercast/internal/backbone"
	"clustercast/internal/broadcast"
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

func TestBuildPaperGraph(t *testing.T) {
	g := paperGraph()
	cl := cluster.LowestID(g)
	b := coverage.NewBuilder(g, cl, coverage.Hop25)
	tree, err := Build(b, cl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root != 0 {
		t.Fatalf("root = %d", tree.Root)
	}
	if err := tree.Verify(g, cl); err != nil {
		t.Fatal(err)
	}
	// Tree must alternate CH → gateway → CH: depth in node-hops is even
	// for clusterheads.
	for _, h := range cl.Heads {
		d := 0
		for x := h; x != tree.Root; x = tree.Parent[x] {
			d++
		}
		if d%2 != 0 {
			t.Fatalf("clusterhead %d at odd tree depth %d", h, d)
		}
	}
}

func TestTreeRootFollowsSourceCluster(t *testing.T) {
	g := paperGraph()
	cl := cluster.LowestID(g)
	b := coverage.NewBuilder(g, cl, coverage.Hop25)
	// Source 9 (paper 10) is in cluster 3 (paper head 3 → 0-based 2).
	tree, err := Build(b, cl, 9)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root != 2 {
		t.Fatalf("root = %d, want the source's clusterhead 2", tree.Root)
	}
	if err := tree.Verify(g, cl); err != nil {
		t.Fatal(err)
	}
}

func TestTreeBroadcastDelivers(t *testing.T) {
	g := paperGraph()
	cl := cluster.LowestID(g)
	b := coverage.NewBuilder(g, cl, coverage.Hop25)
	tree, err := Build(b, cl, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := broadcast.Run(g, 0, broadcast.StaticCDS{Set: tree.Nodes, Label: "fwd-tree"})
	if len(res.Received) != g.N() {
		t.Fatalf("tree broadcast delivered %d/%d", len(res.Received), g.N())
	}
}

func TestDepthAndSize(t *testing.T) {
	g := paperGraph()
	cl := cluster.LowestID(g)
	b := coverage.NewBuilder(g, cl, coverage.Hop25)
	tree, _ := Build(b, cl, 0)
	if tree.Size() < len(cl.Heads) {
		t.Fatalf("tree size %d below head count %d", tree.Size(), len(cl.Heads))
	}
	if d := tree.Depth(); d < 2 || d > 2*len(cl.Heads) {
		t.Fatalf("implausible depth %d", d)
	}
}

func TestBuildDeterministic(t *testing.T) {
	g := paperGraph()
	cl := cluster.LowestID(g)
	b := coverage.NewBuilder(g, cl, coverage.Hop25)
	t1, _ := Build(b, cl, 0)
	t2, _ := Build(b, cl, 0)
	if t1.Size() != t2.Size() {
		t.Fatal("tree construction must be deterministic")
	}
	for v, p := range t1.Parent {
		if t2.Parent[v] != p {
			t.Fatalf("parent of %d differs across runs: %d vs %d", v, p, t2.Parent[v])
		}
	}
}

func TestSingleCluster(t *testing.T) {
	g := graph.FromEdges(4, [][2]int{{0, 1}, {0, 2}, {0, 3}})
	cl := cluster.LowestID(g)
	b := coverage.NewBuilder(g, cl, coverage.Hop25)
	tree, err := Build(b, cl, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Size() != 1 || !tree.Nodes.Has(0) {
		t.Fatalf("single-cluster tree = %v", tree.Nodes.Members())
	}
}

// Property: on random connected networks the tree is valid, spans all
// clusters, and broadcasting over it delivers everywhere — for both
// coverage modes and any source.
func TestQuickTreeValidAndDelivers(t *testing.T) {
	f := func(seed uint64, mode25 bool) bool {
		mode := coverage.Hop3
		if mode25 {
			mode = coverage.Hop25
		}
		r := rng.New(seed)
		nw, err := topology.Generate(topology.Config{
			N: 45, Bounds: geom.Square(100), AvgDegree: 8,
			RequireConnected: true, MaxAttempts: 400,
		}, r)
		if err != nil {
			return true
		}
		cl := cluster.LowestID(nw.G)
		b := coverage.NewBuilder(nw.G, cl, mode)
		src := r.Intn(45)
		tree, err := Build(b, cl, src)
		if err != nil {
			return false
		}
		if tree.Verify(nw.G, cl) != nil {
			return false
		}
		res := broadcast.Run(nw.G, src, broadcast.StaticCDS{Set: tree.Nodes})
		return len(res.Received) == 45
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the tree is usually no larger than the static backbone (it
// attaches each cluster once, while the backbone connects every
// coverage-set pair) — but its lowest-ID attachment choice is not
// set-cover-optimized, so individual instances can exceed the greedy
// backbone by a node or two. Assert a small slack per instance and strict
// dominance on average.
func TestQuickTreeAtMostStaticBackbone(t *testing.T) {
	treeTotal, staticTotal := 0, 0
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nw, err := topology.Generate(topology.Config{
			N: 50, Bounds: geom.Square(100), AvgDegree: 10,
			RequireConnected: true, MaxAttempts: 400,
		}, r)
		if err != nil {
			return true
		}
		cl := cluster.LowestID(nw.G)
		b := coverage.NewBuilder(nw.G, cl, coverage.Hop25)
		tree, err := Build(b, cl, r.Intn(50))
		if err != nil {
			return false
		}
		static := backbone.BuildStaticFrom(b, cl)
		treeTotal += tree.Size()
		staticTotal += static.Size()
		return tree.Size() <= static.Size()+3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
	if treeTotal > staticTotal {
		t.Fatalf("tree sizes (%d) should beat static backbone sizes (%d) on average",
			treeTotal, staticTotal)
	}
}
