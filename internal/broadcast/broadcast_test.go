package broadcast

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

func randomNet(t testing.TB, seed uint64, n int, deg float64) *topology.Network {
	t.Helper()
	r := rng.New(seed)
	nw, err := topology.Generate(topology.Config{
		N: n, Bounds: geom.Square(100), AvgDegree: deg,
		RequireConnected: true, MaxAttempts: 500,
	}, r)
	if err != nil {
		t.Skipf("could not generate network: %v", err)
	}
	return nw
}

// bitsetOf returns a set over 0..n−1 holding those of the given ids that
// are below n, so one id list serves graphs of any size.
func bitsetOf(n int, ids ...int) *graph.Bitset {
	b := graph.NewBitset(n)
	for _, id := range ids {
		if id < n {
			b.Add(id)
		}
	}
	return b
}

func TestFloodingReachesEveryone(t *testing.T) {
	g := pathGraph(6)
	res := Run(g, 0, Flooding{})
	if len(res.Received) != 6 {
		t.Fatalf("flooding delivered to %d/6", len(res.Received))
	}
	if res.ForwardCount() != 6 {
		t.Fatalf("flooding forwarders = %d, want all 6", res.ForwardCount())
	}
	if res.Latency != 5 {
		t.Fatalf("latency = %d, want 5", res.Latency)
	}
	if res.DeliveryRatio(6) != 1 {
		t.Fatalf("delivery ratio = %g", res.DeliveryRatio(6))
	}
}

func TestFloodingFromMiddle(t *testing.T) {
	g := pathGraph(7)
	res := Run(g, 3, Flooding{})
	if res.Latency != 3 {
		t.Fatalf("latency from middle = %d, want 3", res.Latency)
	}
}

func TestFloodingDisconnected(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	res := Run(g, 0, Flooding{})
	if len(res.Received) != 2 {
		t.Fatalf("flooding crossed a partition: %v", res.Received)
	}
	if res.DeliveryRatio(4) != 0.5 {
		t.Fatalf("delivery ratio = %g, want 0.5", res.DeliveryRatio(4))
	}
}

func TestGossipZeroAndOne(t *testing.T) {
	nw := randomNet(t, 3, 40, 8)
	all := Run(nw.G, 0, Gossip{P: 1, Seed: 7})
	if len(all.Received) != 40 {
		t.Fatalf("gossip p=1 must behave like flooding: %d/40", len(all.Received))
	}
	none := Run(nw.G, 0, Gossip{P: 0, Seed: 7})
	if none.ForwardCount() != 1 {
		t.Fatalf("gossip p=0 must have only the source forward: %d", none.ForwardCount())
	}
}

func TestGossipDeterministic(t *testing.T) {
	nw := randomNet(t, 5, 40, 8)
	a := Run(nw.G, 2, Gossip{P: 0.6, Seed: 11})
	b := Run(nw.G, 2, Gossip{P: 0.6, Seed: 11})
	if a.ForwardCount() != b.ForwardCount() || len(a.Received) != len(b.Received) {
		t.Fatal("gossip with equal seed must replicate exactly")
	}
}

func TestStaticCDSForwardsOnlyMembers(t *testing.T) {
	g := pathGraph(5)
	res := Run(g, 0, StaticCDS{Set: bitsetOf(5, 1, 2, 3), Label: "test-cds"})
	if len(res.Received) != 5 {
		t.Fatalf("CDS broadcast should reach everyone: %d/5", len(res.Received))
	}
	// Forwarders: source + CDS members.
	if res.ForwardCount() != 4 {
		t.Fatalf("forwarders = %v, want [0 1 2 3]", res.Forwarders)
	}
	if res.Forwarders[4] {
		t.Fatal("non-member endpoint must not forward")
	}
}

func TestStaticCDSName(t *testing.T) {
	if (StaticCDS{Label: "mo-cds"}).Name() != "mo-cds" {
		t.Fatal("label not used")
	}
	if (StaticCDS{}).Name() != "static-cds" {
		t.Fatal("default name wrong")
	}
}

// TestMPRSelectionCoversTwoHop: every MPR set holds only neighbors, and
// their rows cover every node at distance exactly 2 (read off a BFS).
func TestMPRSelectionCoversTwoHop(t *testing.T) {
	nw := randomNet(t, 9, 50, 8)
	g := nw.G
	m := NewMPR(g)
	for v := 0; v < g.N(); v++ {
		covered := make(map[int]bool)
		for _, u := range m.pkts[v].forward {
			if !g.HasEdge(v, int(u)) {
				t.Fatalf("MPR(%d) contains non-neighbor %d", v, u)
			}
			for _, w := range g.Neighbors(int(u)) {
				covered[int(w)] = true
			}
		}
		for w, d := range g.BFS(v) {
			if d == 2 && !covered[w] {
				t.Fatalf("MPR(%d) fails to cover 2-hop node %d", v, w)
			}
		}
	}
}

func TestGreedyCoverBasic(t *testing.T) {
	// Node 0's neighbors 1, 2 and 3 cover its 2-hop nodes {10, 11}, {11}
	// and {12}.
	g := graph.FromEdges(13, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 10}, {1, 11}, {2, 11}, {3, 12}})
	s := newCover(g)
	s.prepare(0, -1, false)
	if got := s.greedy(nil); !slices.Equal(got, []int32{1, 3}) {
		t.Fatalf("greedy = %v, want [1 3]", got)
	}
	if s.live != 0 {
		t.Fatalf("%d targets left uncovered", s.live)
	}
}

func TestGreedyCoverUncoverable(t *testing.T) {
	// Node 1 hears node 0, which reached 1's only other neighbor 2; node
	// 3, two hops from 1, is a target that no candidate covers.
	g := graph.FromEdges(4, [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}})
	s := newCover(g)
	s.prepare(1, 0, false)
	if got := s.greedy(nil); len(got) != 0 {
		t.Fatalf("uncoverable targets must yield empty selection, got %v", got)
	}
	if s.live != 1 {
		t.Fatalf("%d targets left uncovered, want 1", s.live)
	}
}

// deliveryAndEfficiency verifies full delivery on a connected graph and
// that the protocol forwards no more than flooding.
func deliveryAndEfficiency(t *testing.T, seed uint64, n int, deg float64, build func(*graph.Graph) Protocol) {
	t.Helper()
	nw := randomNet(t, seed, n, deg)
	p := build(nw.G)
	r := rng.New(seed ^ 0xabcdef)
	for trial := 0; trial < 5; trial++ {
		src := r.Intn(n)
		res := Run(nw.G, src, p)
		if len(res.Received) != n {
			t.Fatalf("%s: delivered %d/%d from source %d (seed %d)",
				p.Name(), len(res.Received), n, src, seed)
		}
		if res.ForwardCount() > n {
			t.Fatalf("%s: forward count %d exceeds n", p.Name(), res.ForwardCount())
		}
	}
}

func TestMPRFullDelivery(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		deliveryAndEfficiency(t, seed, 50, 8, func(g *graph.Graph) Protocol { return NewMPR(g) })
	}
}

func TestDPFullDelivery(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		deliveryAndEfficiency(t, seed, 50, 8, func(g *graph.Graph) Protocol { return NewDP(g) })
	}
}

func TestPDPFullDelivery(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		deliveryAndEfficiency(t, seed, 50, 8, func(g *graph.Graph) Protocol { return NewPDP(g) })
	}
}

// Property: on dense networks the pruning protocols use far fewer
// forwarders than flooding, and PDP never reaches fewer nodes than DP
// covers (both must deliver fully on connected graphs anyway).
func TestQuickPruningBeatsFlooding(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nw, err := topology.Generate(topology.Config{
			N: 60, Bounds: geom.Square(100), AvgDegree: 15,
			RequireConnected: true, MaxAttempts: 300,
		}, r)
		if err != nil {
			return true
		}
		src := r.Intn(60)
		flood := Run(nw.G, src, Flooding{})
		dp := Run(nw.G, src, NewDP(nw.G))
		pdp := Run(nw.G, src, NewPDP(nw.G))
		mpr := Run(nw.G, src, NewMPR(nw.G))
		if len(dp.Received) != 60 || len(pdp.Received) != 60 || len(mpr.Received) != 60 {
			return false
		}
		// On a dense 60-node network, pruning must strictly beat flooding.
		return dp.ForwardCount() < flood.ForwardCount() &&
			pdp.ForwardCount() < flood.ForwardCount() &&
			mpr.ForwardCount() < flood.ForwardCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleNode(t *testing.T) {
	g := graph.New(1)
	res := Run(g, 0, Flooding{})
	if res.ForwardCount() != 1 || len(res.Received) != 1 || res.Latency != 0 {
		t.Fatalf("single-node broadcast wrong: %+v", res)
	}
}

func BenchmarkFlooding100(b *testing.B) {
	r := rng.New(1)
	nw, err := topology.Generate(topology.Config{
		N: 100, Bounds: geom.Square(100), AvgDegree: 18, RequireConnected: true,
	}, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Run(nw.G, i%100, Flooding{})
	}
}

func BenchmarkPDP100(b *testing.B) {
	r := rng.New(1)
	nw, err := topology.Generate(topology.Config{
		N: 100, Bounds: geom.Square(100), AvgDegree: 18, RequireConnected: true,
	}, r)
	if err != nil {
		b.Fatal(err)
	}
	p := NewPDP(nw.G)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Run(nw.G, i%100, p)
	}
}

// TestWorkspaceDecliningRunKeepsNoActedState: an ideal-radio run of a
// protocol that embeds NoDuplicates sizes no acted-payload state; a DP run
// does, and keeps a list exactly for the nodes that transmitted.
func TestWorkspaceDecliningRunKeepsNoActedState(t *testing.T) {
	nw := randomNet(t, 860, 60, 9)
	var ws Workspace
	ws.Run(nw.G, 0, Flooding{})
	if ws.actedSeg != nil || cap(ws.acted) != 0 {
		t.Fatalf("a flooding run sized acted state: %d segments, arena cap %d", len(ws.actedSeg), cap(ws.acted))
	}
	res := ws.Run(nw.G, 0, NewDP(nw.G))
	if len(ws.actedSeg) != nw.G.N() {
		t.Fatalf("a DP run sized %d acted segments for %d nodes", len(ws.actedSeg), nw.G.N())
	}
	lists := 0
	for v, seg := range ws.actedSeg {
		if ws.forwarded.Has(v) && seg.n > 0 {
			lists++
		}
	}
	if lists != res.ForwardCount() {
		t.Fatalf("a DP run kept %d acted lists for %d forwarders", lists, res.ForwardCount())
	}
}
