package passive

import (
	"testing"
	"testing/quick"

	"clustercast/internal/broadcast"
	"clustercast/internal/geom"
	"clustercast/internal/graph"
	"clustercast/internal/rng"
	"clustercast/internal/topology"
)

func TestStateString(t *testing.T) {
	want := map[State]string{
		Initial: "initial", Clusterhead: "clusterhead",
		Gateway: "gateway", Ordinary: "ordinary", State(9): "unknown",
	}
	for s, str := range want {
		if s.String() != str {
			t.Fatalf("%d.String() = %q, want %q", s, s.String(), str)
		}
	}
}

func TestSourceDeclaresClusterhead(t *testing.T) {
	g := graph.FromEdges(3, [][2]int{{0, 1}, {1, 2}})
	p := NewProtocol(g)
	res := broadcast.Run(g, 0, p)
	if p.state[0] != Clusterhead {
		t.Fatalf("source state = %v, want clusterhead (first declaration wins)", p.state[0])
	}
	if len(res.Received) != 3 {
		t.Fatalf("delivered %d/3", len(res.Received))
	}
}

func TestFirstDeclarationWins(t *testing.T) {
	// Star: source center declares CH; the leaves hear exactly one CH and
	// no gateway → they become gateways (and forward, harmlessly).
	g := graph.FromEdges(4, [][2]int{{0, 1}, {0, 2}, {0, 3}})
	p := NewProtocol(g)
	broadcast.Run(g, 0, p)
	if p.state[0] != Clusterhead {
		t.Fatal("center must be clusterhead")
	}
	for v := 1; v <= 3; v++ {
		if p.state[v] == Clusterhead {
			t.Fatalf("leaf %d must not become clusterhead after hearing one", v)
		}
	}
}

func TestOrdinaryNodesEmerge(t *testing.T) {
	// In a dense neighborhood, after a couple of floods nodes hearing one
	// clusterhead and an existing gateway settle as ordinary.
	r := rng.New(5)
	nw, err := topology.Generate(topology.Config{
		N: 60, Bounds: geom.Square(60), AvgDegree: 20,
		RequireConnected: true, MaxAttempts: 300,
	}, r)
	if err != nil {
		t.Skip(err)
	}
	p := NewProtocol(nw.G)
	broadcast.Run(nw.G, 0, p)
	broadcast.Run(nw.G, 30, p)
	ordinary := 0
	for v := 0; v < nw.G.N(); v++ {
		if p.state[v] == Ordinary {
			ordinary++
		}
	}
	if ordinary == 0 {
		t.Fatal("dense network should produce ordinary (non-forwarding) nodes after convergence")
	}
}

func TestConvergenceSavesForwards(t *testing.T) {
	// The structure forms during the first floods; once converged, later
	// floods forward less than blind flooding.
	r := rng.New(9)
	nw, err := topology.Generate(topology.Config{
		N: 80, Bounds: geom.Square(100), AvgDegree: 18,
		RequireConnected: true, MaxAttempts: 300,
	}, r)
	if err != nil {
		t.Skip(err)
	}
	sources := []int{0, 17, 33, 5, 61}
	series := RunSeries(nw.G, sources)
	flood := broadcast.Run(nw.G, sources[len(sources)-1], broadcast.Flooding{})
	last := series[len(series)-1]
	if last.ForwardCount() >= flood.ForwardCount() {
		t.Fatalf("converged passive clustering (%d) should forward less than flooding (%d)",
			last.ForwardCount(), flood.ForwardCount())
	}
	if series[0].ForwardCount() < last.ForwardCount() {
		t.Logf("note: first flood (%d) already cheaper than converged (%d)",
			series[0].ForwardCount(), last.ForwardCount())
	}
}

func TestDeterministic(t *testing.T) {
	r := rng.New(3)
	nw, err := topology.Generate(topology.Config{
		N: 50, Bounds: geom.Square(100), AvgDegree: 10,
		RequireConnected: true, MaxAttempts: 300,
	}, r)
	if err != nil {
		t.Skip(err)
	}
	a := Run(nw.G, 7)
	b := Run(nw.G, 7)
	if a.ForwardCount() != b.ForwardCount() || len(a.Received) != len(b.Received) {
		t.Fatal("passive clustering must be deterministic")
	}
}

// Property: states are assigned consistently — every node that received
// the packet has decided (no Initial receivers that forwarded), ordinary
// nodes never forward, and the delivery ratio is at most flooding's.
func TestQuickStateConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nw, err := topology.Generate(topology.Config{
			N: 50, Bounds: geom.Square(100), AvgDegree: 10,
			RequireConnected: true, MaxAttempts: 300,
		}, r)
		if err != nil {
			return true
		}
		src := r.Intn(50)
		p := NewProtocol(nw.G)
		res := broadcast.Run(nw.G, src, p)
		_ = res
		// After the flood, every node that received has left the Initial
		// state unless it never transmitted and heard no declarations.
		for v := range res.Forwarders {
			if v != src && p.state[v] == Initial {
				return false // forwarded without ever deciding
			}
		}
		flood := broadcast.Run(nw.G, src, broadcast.Flooding{})
		return len(res.Received) <= len(flood.Received)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestDeliveryTradeoff quantifies the paper's observation that passive
// clustering "suffers poor delivery rate": averaged over sparse networks,
// delivery is high but not guaranteed, unlike the CDS-based schemes.
func TestDeliveryTradeoff(t *testing.T) {
	root := rng.New(77)
	total, delivered := 0, 0
	for trial := 0; trial < 30; trial++ {
		nw, err := topology.Generate(topology.Config{
			N: 50, Bounds: geom.Square(100), AvgDegree: 6,
			RequireConnected: true, MaxAttempts: 300,
		}, root)
		if err != nil {
			t.Fatal(err)
		}
		series := RunSeries(nw.G, []int{root.Intn(50), root.Intn(50), root.Intn(50)})
		total += 50
		delivered += len(series[len(series)-1].Received)
	}
	ratio := float64(delivered) / float64(total)
	if ratio < 0.80 {
		t.Fatalf("delivery ratio %.3f implausibly low — protocol broken?", ratio)
	}
	t.Logf("sparse-network delivery ratio: %.3f (flooding: 1.000)", ratio)
}

func BenchmarkPassive100(b *testing.B) {
	r := rng.New(1)
	nw, err := topology.Generate(topology.Config{
		N: 100, Bounds: geom.Square(100), AvgDegree: 18, RequireConnected: true,
	}, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Run(nw.G, i%100)
	}
}
