package broadcast

import (
	"testing"

	"clustercast/internal/geom"
	"clustercast/internal/graph"
	"clustercast/internal/rng"
	"clustercast/internal/topology"
)

func TestLossyZeroMatchesIdeal(t *testing.T) {
	nw := randomNet(t, 21, 50, 10)
	ideal := Run(nw.G, 0, Flooding{})
	lossy := RunOpts(nw.G, 0, Flooding{}, Options{Loss: 0, Seed: 1})
	if len(ideal.Received) != len(lossy.Received) || ideal.ForwardCount() != lossy.ForwardCount() {
		t.Fatal("Loss=0 must behave exactly like the ideal model")
	}
}

func TestLossyTotalLossDeliversNothing(t *testing.T) {
	nw := randomNet(t, 22, 40, 8)
	res := RunOpts(nw.G, 0, Flooding{}, Options{Loss: 1, Seed: 1})
	if len(res.Received) != 1 {
		t.Fatalf("Loss=1 should deliver to nobody, got %d receivers", len(res.Received))
	}
}

func TestLossyDeterministic(t *testing.T) {
	nw := randomNet(t, 23, 50, 10)
	a := RunOpts(nw.G, 3, Flooding{}, Options{Loss: 0.3, Seed: 99})
	b := RunOpts(nw.G, 3, Flooding{}, Options{Loss: 0.3, Seed: 99})
	if len(a.Received) != len(b.Received) || a.ForwardCount() != b.ForwardCount() {
		t.Fatal("equal seeds must replicate the lossy run exactly")
	}
	c := RunOpts(nw.G, 3, Flooding{}, Options{Loss: 0.3, Seed: 100})
	if len(a.Received) == len(c.Received) && a.ForwardCount() == c.ForwardCount() &&
		len(a.Received) == nw.G.N() {
		// Different seeds usually differ; identical full delivery on both is
		// possible but then the test is vacuous — just accept.
		t.Log("both seeds delivered fully")
	}
}

// TestLossyRedundancyHelps quantifies the redundancy/reliability
// trade-off: under 20% loss, flooding (massive redundancy) delivers to
// more nodes than the minimal static backbone broadcast.
func TestLossyRedundancyHelps(t *testing.T) {
	root := rng.New(4)
	floodSum, cdsSum := 0, 0
	const trials = 25
	for i := 0; i < trials; i++ {
		nw, err := topology.Generate(topology.Config{
			N: 60, Bounds: geom.Square(100), AvgDegree: 10,
			RequireConnected: true, MaxAttempts: 300,
		}, root)
		if err != nil {
			t.Fatal(err)
		}
		// A thin CDS: same set used by both runs below would be ideal, but
		// a simple 2-hop dominator chain suffices — use flooding's forward
		// set on an ideal run minus redundancy via gossip 0.3 membership.
		// Instead, use a deterministic thin set: BFS layers mod 3 == 0.
		dist := nw.G.BFS(0)
		thin := map[int]bool{}
		for v, d := range dist {
			if d%3 == 0 {
				thin[v] = true
			}
		}
		opt := Options{Loss: 0.2, Seed: uint64(i)}
		flood := RunOpts(nw.G, 0, Flooding{}, opt)
		cds := RunOpts(nw.G, 0, StaticCDS{Set: thin}, opt)
		floodSum += len(flood.Received)
		cdsSum += len(cds.Received)
	}
	if floodSum <= cdsSum {
		t.Fatalf("flooding under loss (%d) should out-deliver a thin forward set (%d)",
			floodSum, cdsSum)
	}
	t.Logf("delivered under 20%% loss over %d trials: flooding=%d thin-set=%d", trials, floodSum, cdsSum)
}

func TestDeliveryTreeParents(t *testing.T) {
	g := graph.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	res := Run(g, 0, Flooding{})
	// On a path the delivery tree is the path itself.
	want := map[int]int{1: 0, 2: 1, 3: 2}
	for v, p := range want {
		if res.Parent[v] != p {
			t.Fatalf("Parent[%d] = %d, want %d", v, res.Parent[v], p)
		}
	}
	if _, ok := res.Parent[0]; ok {
		t.Fatal("source must have no parent")
	}
}

func TestDeliveryTreeReachesSource(t *testing.T) {
	nw := randomNet(t, 31, 60, 10)
	res := Run(nw.G, 5, Flooding{})
	for v := range res.Received {
		steps := 0
		for x := v; x != 5; x = res.Parent[x] {
			if _, ok := res.Parent[x]; !ok {
				t.Fatalf("node %d: broken parent chain at %d", v, x)
			}
			steps++
			if steps > nw.G.N() {
				t.Fatalf("node %d: parent cycle", v)
			}
		}
	}
}

func TestDuplicatesCounting(t *testing.T) {
	// Triangle, flooding: source transmits (2 deliveries), both others
	// forward; each of their transmissions delivers 2 copies, of which all
	// 4 land on nodes that already have the packet.
	g := graph.FromEdges(3, [][2]int{{0, 1}, {0, 2}, {1, 2}})
	res := Run(g, 0, Flooding{})
	if res.Duplicates != 4 {
		t.Fatalf("Duplicates = %d, want 4", res.Duplicates)
	}
	if got := res.Redundancy(); got != 4.0/3 {
		t.Fatalf("Redundancy = %g, want 4/3", got)
	}
}

func TestBackboneReducesRedundancy(t *testing.T) {
	nw := randomNet(t, 51, 80, 18)
	flood := Run(nw.G, 0, Flooding{})
	dist := nw.G.BFS(0)
	thin := map[int]bool{}
	for v, d := range dist {
		if d%2 == 0 {
			thin[v] = true
		}
	}
	cds := Run(nw.G, 0, StaticCDS{Set: thin})
	if cds.Duplicates >= flood.Duplicates {
		t.Fatalf("thin set duplicates %d should be below flooding's %d",
			cds.Duplicates, flood.Duplicates)
	}
}
