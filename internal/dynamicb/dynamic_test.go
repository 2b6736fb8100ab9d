package dynamicb

import (
	"reflect"
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

// TestPaperIllustration reproduces the paper's §3 walk-through: a dynamic
// broadcast from clusterhead 1 uses exactly 7 forward nodes
// {1,2,3,4,6,7,9} versus the static backbone's 9.
func TestPaperIllustration(t *testing.T) {
	g := paperGraph()
	cl := cluster.LowestID(g)
	p := New(g, cl, coverage.Hop25)
	res := p.Broadcast(0) // paper node 1
	want := map[int]bool{0: true, 1: true, 2: true, 3: true, 5: true, 6: true, 8: true}
	if !reflect.DeepEqual(res.Forwarders, want) {
		t.Fatalf("forwarders = %v, want %v (paper {1,2,3,4,6,7,9})", res.Forwarders, want)
	}
	if res.ForwardCount() != 7 {
		t.Fatalf("forward count = %d, want 7", res.ForwardCount())
	}
	if len(res.Received) != g.N() {
		t.Fatalf("delivered %d/%d", len(res.Received), g.N())
	}
}

// TestPaperStaticComparison: the same broadcast over the static backbone
// uses all 9 backbone nodes (paper: "In total, 9 nodes ... will forward").
func TestPaperStaticComparison(t *testing.T) {
	g := paperGraph()
	cl := cluster.LowestID(g)
	s := backbone.BuildStatic(g, cl, coverage.Hop25)
	res := broadcast.Run(g, 0, broadcast.StaticCDS{Set: s.Nodes, Label: "static"})
	if res.ForwardCount() != 9 {
		t.Fatalf("static forward count = %d, want 9", res.ForwardCount())
	}
	dyn := New(g, cl, coverage.Hop25).Broadcast(0)
	if dyn.ForwardCount() >= res.ForwardCount() {
		t.Fatalf("dynamic (%d) must beat static (%d) on the paper example",
			dyn.ForwardCount(), res.ForwardCount())
	}
}

func TestNonClusterheadSource(t *testing.T) {
	g := paperGraph()
	cl := cluster.LowestID(g)
	p := New(g, cl, coverage.Hop25)
	// Source 9 (paper 10) is a member of cluster 3.
	res := p.Broadcast(9)
	if len(res.Received) != g.N() {
		t.Fatalf("delivered %d/%d from member source", len(res.Received), g.N())
	}
	if !res.Forwarders[9] {
		t.Fatal("source must count as forwarder")
	}
	if !res.Forwarders[2] {
		t.Fatal("the source's clusterhead (paper 3) must forward")
	}
}

func TestAllSourcesDeliverPaperGraph(t *testing.T) {
	g := paperGraph()
	cl := cluster.LowestID(g)
	for _, mode := range []coverage.Mode{coverage.Hop25, coverage.Hop3} {
		p := New(g, cl, mode)
		for src := 0; src < g.N(); src++ {
			res := p.Broadcast(src)
			if len(res.Received) != g.N() {
				t.Fatalf("%v: source %d delivered %d/%d",
					mode, src, len(res.Received), g.N())
			}
		}
	}
}

func TestBroadcastDeterministic(t *testing.T) {
	g := paperGraph()
	cl := cluster.LowestID(g)
	p := New(g, cl, coverage.Hop25)
	a := p.Broadcast(4)
	b := p.Broadcast(4)
	if !reflect.DeepEqual(a.Forwarders, b.Forwarders) {
		t.Fatal("dynamic broadcast must be deterministic")
	}
}

func TestName(t *testing.T) {
	g := paperGraph()
	cl := cluster.LowestID(g)
	if got := New(g, cl, coverage.Hop25).Name(); got != "dynamic-2.5-hop" {
		t.Fatalf("Name = %q", got)
	}
	if got := New(g, cl, coverage.Hop3).Name(); got != "dynamic-3-hop" {
		t.Fatalf("Name = %q", got)
	}
}

func randomNet(seed uint64, n int, deg float64) (*topology.Network, bool) {
	r := rng.New(seed)
	nw, err := topology.Generate(topology.Config{
		N: n, Bounds: geom.Square(100), AvgDegree: deg,
		RequireConnected: true, MaxAttempts: 400,
	}, r)
	return nw, err == nil
}

// Property (Theorem 2 + delivery): on random connected networks, every
// dynamic broadcast reaches all nodes, the forwarder set is a CDS, and all
// clusterheads forward.
func TestQuickDynamicDeliversAndFormsCDS(t *testing.T) {
	check := func(seed uint64, mode coverage.Mode, deg float64) bool {
		nw, ok := randomNet(seed, 50, deg)
		if !ok {
			return true
		}
		cl := cluster.LowestID(nw.G)
		p := New(nw.G, cl, mode)
		r := rng.New(seed ^ 0x5eed)
		for trial := 0; trial < 3; trial++ {
			src := r.Intn(50)
			res := p.Broadcast(src)
			if len(res.Received) != 50 {
				return false
			}
			for _, h := range cl.Heads {
				if !res.Forwarders[h] {
					return false
				}
			}
			if !nw.G.IsCDS(res.Forwarders) {
				return false
			}
		}
		return true
	}
	f := func(seed uint64, dense bool) bool {
		deg := 6.0
		if dense {
			deg = 18.0
		}
		return check(seed, coverage.Hop25, deg) && check(seed, coverage.Hop3, deg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Figure 8's shape: averaged over topologies and sources, the dynamic
// backbone uses fewer forwarders than broadcasting over the static
// backbone. The ordering is NOT a per-instance theorem — on compact
// topologies the static greedy selection amortizes gateways across heads
// while per-broadcast selection cannot, and the dynamic count can exceed
// the static one by a node or two (e.g. the connected 60-node topology of
// seed 0xaef8e3b2c20615bb) — so the assertion is on the mean, with fixed
// seeds for determinism.
func TestDynamicBeatsStaticOnAverage(t *testing.T) {
	var sumStatic, sumDyn int
	topologies := 0
	for seed := uint64(1); topologies < 25 && seed < 200; seed++ {
		nw, ok := randomNet(seed, 60, 12)
		if !ok {
			continue
		}
		topologies++
		cl := cluster.LowestID(nw.G)
		stat := backbone.BuildStatic(nw.G, cl, coverage.Hop25)
		dyn := New(nw.G, cl, coverage.Hop25)
		r := rng.New(seed ^ 0xfeed)
		for trial := 0; trial < 4; trial++ {
			src := r.Intn(60)
			sres := broadcast.Run(nw.G, src, broadcast.StaticCDS{Set: stat.Nodes})
			dres := dyn.Broadcast(src)
			sumStatic += sres.ForwardCount()
			sumDyn += dres.ForwardCount()
		}
	}
	if topologies < 10 {
		t.Fatalf("only %d topologies generated", topologies)
	}
	if sumDyn >= sumStatic {
		t.Fatalf("dynamic total %d should be below static total %d over %d topologies",
			sumDyn, sumStatic, topologies)
	}
	t.Logf("forward totals over %d topologies × 4 sources: static=%d dynamic=%d (−%.1f%%)",
		topologies, sumStatic, sumDyn, 100*(1-float64(sumDyn)/float64(sumStatic)))
}

// Property: forwarding gateways are always non-clusterheads designated by
// some clusterhead; i.e. the forwarder set is heads + source + designated
// gateways only.
func TestQuickForwardersAreLegitimate(t *testing.T) {
	f := func(seed uint64) bool {
		nw, ok := randomNet(seed, 40, 8)
		if !ok {
			return true
		}
		cl := cluster.LowestID(nw.G)
		p := New(nw.G, cl, coverage.Hop25)
		src := rng.New(seed).Intn(40)
		res := p.Broadcast(src)
		for v := range res.Forwarders {
			if v == src || cl.IsHead(v) {
				continue
			}
			// Non-head forwarders must be within 2 hops of some head
			// (gateway or relay position).
			dist := nw.G.BFS(v)
			ok := false
			for _, h := range cl.Heads {
				if dist[h] <= 2 {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleNodeBroadcast(t *testing.T) {
	g := graph.New(1)
	cl := cluster.LowestID(g)
	p := New(g, cl, coverage.Hop25)
	res := p.Broadcast(0)
	if res.ForwardCount() != 1 || len(res.Received) != 1 {
		t.Fatalf("trivial broadcast wrong: %+v", res)
	}
}

func TestTwoNodeBroadcast(t *testing.T) {
	g := graph.FromEdges(2, [][2]int{{0, 1}})
	cl := cluster.LowestID(g)
	p := New(g, cl, coverage.Hop25)
	for src := 0; src < 2; src++ {
		res := p.Broadcast(src)
		if len(res.Received) != 2 {
			t.Fatalf("source %d: delivered %d/2", src, len(res.Received))
		}
	}
}

func BenchmarkDynamicBroadcast100(b *testing.B) {
	r := rng.New(1)
	nw, err := topology.Generate(topology.Config{
		N: 100, Bounds: geom.Square(100), AvgDegree: 18, RequireConnected: true,
	}, r)
	if err != nil {
		b.Fatal(err)
	}
	cl := cluster.LowestID(nw.G)
	p := New(nw.G, cl, coverage.Hop25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Broadcast(i % 100)
	}
}
