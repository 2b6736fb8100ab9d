package reliable

import (
	"testing"
	"testing/quick"

	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/fwdtree"
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

func buildTree(t testing.TB, g *graph.Graph, source int) (*fwdtree.Tree, *cluster.Clustering) {
	t.Helper()
	cl := cluster.LowestID(g)
	b := coverage.NewBuilder(g, cl, coverage.Hop25)
	tree, err := fwdtree.Build(b, cl, source)
	if err != nil {
		t.Fatal(err)
	}
	return tree, cl
}

func TestIdealRadioDelivers(t *testing.T) {
	g := paperGraph()
	for src := 0; src < g.N(); src++ {
		tree, _ := buildTree(t, g, src)
		res, err := Run(g, tree, src, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Delivered {
			t.Fatalf("source %d: not delivered under ideal radio", src)
		}
		if res.Transmissions == 0 || res.Rounds == 0 {
			t.Fatalf("source %d: implausible counters %+v", src, res)
		}
	}
}

func TestIdealTransmissionsBounded(t *testing.T) {
	// Without loss, every tree node transmits O(1) times (down once, up at
	// most once, plus ack-resolution slack).
	g := paperGraph()
	tree, _ := buildTree(t, g, 0)
	res, err := Run(g, tree, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Transmissions > 3*tree.Size()+3 {
		t.Fatalf("ideal radio used %d transmissions for a %d-node tree",
			res.Transmissions, tree.Size())
	}
}

func TestLossyStillDelivers(t *testing.T) {
	g := paperGraph()
	tree, _ := buildTree(t, g, 0)
	for seed := uint64(0); seed < 10; seed++ {
		res, err := Run(g, tree, 0, Config{Loss: 0.3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Delivered {
			t.Fatalf("seed %d: reliable broadcast failed under 30%% loss", seed)
		}
	}
}

func TestLossCostsRetransmissions(t *testing.T) {
	g := paperGraph()
	tree, _ := buildTree(t, g, 0)
	ideal, _ := Run(g, tree, 0, Config{})
	sum := 0
	const trials = 20
	for seed := uint64(0); seed < trials; seed++ {
		res, _ := Run(g, tree, 0, Config{Loss: 0.4, Seed: seed})
		sum += res.Transmissions
	}
	if sum/trials <= ideal.Transmissions {
		t.Fatalf("40%% loss should cost retransmissions: ideal=%d lossy-avg=%d",
			ideal.Transmissions, sum/trials)
	}
}

func TestSourceOutOfRange(t *testing.T) {
	g := paperGraph()
	tree, _ := buildTree(t, g, 0)
	if _, err := Run(g, tree, -1, Config{}); err == nil {
		t.Fatal("negative source must error")
	}
	if _, err := Run(g, tree, 99, Config{}); err == nil {
		t.Fatal("oversized source must error")
	}
}

func TestOffTreeSource(t *testing.T) {
	g := paperGraph()
	// Node 9 (paper 10) is outside the 2.5-hop backbone/tree for root
	// cluster 3; ensure an off-tree source still boots dissemination.
	tree, cl := buildTree(t, g, 9)
	if tree.Nodes.Has(9) {
		t.Skip("node 9 landed on the tree in this construction")
	}
	_ = cl
	res, err := Run(g, tree, 9, Config{Loss: 0.2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered {
		t.Fatal("off-tree source failed to deliver")
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	g := paperGraph()
	tree, _ := buildTree(t, g, 0)
	a, _ := Run(g, tree, 0, Config{Loss: 0.25, Seed: 7})
	b, _ := Run(g, tree, 0, Config{Loss: 0.25, Seed: 7})
	if a.Transmissions != b.Transmissions || a.Rounds != b.Rounds || a.Acks != b.Acks {
		t.Fatal("equal seeds must replicate exactly")
	}
}

// Property: on random connected networks, reliable broadcast delivers to
// every node under moderate loss, from any source.
func TestQuickReliableDelivers(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nw, err := topology.Generate(topology.Config{
			N: 40, Bounds: geom.Square(100), AvgDegree: 8,
			RequireConnected: true, MaxAttempts: 400,
		}, r)
		if err != nil {
			return true
		}
		src := r.Intn(40)
		cl := cluster.LowestID(nw.G)
		b := coverage.NewBuilder(nw.G, cl, coverage.Hop25)
		tree, err := fwdtree.Build(b, cl, src)
		if err != nil {
			return false
		}
		res, err := Run(nw.G, tree, src, Config{Loss: 0.2, Seed: seed})
		if err != nil {
			return false
		}
		return res.Delivered
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkReliable100Loss20(b *testing.B) {
	r := rng.New(1)
	nw, err := topology.Generate(topology.Config{
		N: 100, Bounds: geom.Square(100), AvgDegree: 18, RequireConnected: true,
	}, r)
	if err != nil {
		b.Fatal(err)
	}
	cl := cluster.LowestID(nw.G)
	cb := coverage.NewBuilder(nw.G, cl, coverage.Hop25)
	tree, err := fwdtree.Build(cb, cl, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(nw.G, tree, 0, Config{Loss: 0.2, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
