package core

import (
	"strings"
	"testing"

	"clustercast/internal/graph"
	"clustercast/internal/topology"
)

// paperNetwork wraps the paper's Figure 3 example network (0-based IDs).
func paperNetwork() *Network {
	edges := [][2]int{
		{1, 5}, {1, 6}, {1, 7}, {2, 6}, {2, 8},
		{3, 7}, {3, 8}, {3, 9}, {3, 10}, {4, 9}, {4, 10}, {5, 9},
	}
	zero := make([][2]int, len(edges))
	for i, e := range edges {
		zero[i] = [2]int{e[0] - 1, e[1] - 1}
	}
	return FromTopology(&topology.Network{G: graph.FromEdges(10, zero)})
}

func TestNewRandomNetwork(t *testing.T) {
	nw, err := NewRandomNetwork(NetworkSpec{N: 60, AvgDegree: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if nw.N() != 60 {
		t.Fatalf("N = %d", nw.N())
	}
	if !nw.Graph().Connected() {
		t.Fatal("default spec must produce a connected network")
	}
	if len(nw.Heads()) == 0 {
		t.Fatal("no clusterheads")
	}
}

func TestNewRandomNetworkErrors(t *testing.T) {
	if _, err := NewRandomNetwork(NetworkSpec{N: 0, AvgDegree: 6}); err == nil {
		t.Fatal("N=0 must error")
	}
	if _, err := NewRandomNetwork(NetworkSpec{N: 10}); err == nil {
		t.Fatal("missing degree/radius must error")
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	nw := paperNetwork()
	static := nw.StaticBackbone(Hop25)
	if static.Size() != 9 {
		t.Fatalf("paper static backbone size = %d, want 9", static.Size())
	}
	res := nw.BroadcastStatic(static, 0)
	if res.ForwardCount() != 9 {
		t.Fatalf("static broadcast forwarders = %d, want 9", res.ForwardCount())
	}
	dyn := nw.DynamicBroadcast(Hop25, 0)
	if dyn.ForwardCount() != 7 {
		t.Fatalf("dynamic broadcast forwarders = %d, want 7", dyn.ForwardCount())
	}
	mo := nw.MOCDS()
	if !nw.Graph().IsCDSBits(mo) {
		t.Fatal("MO_CDS must be a CDS")
	}
	mores := nw.BroadcastMOCDS(mo, 0)
	if len(mores.Received) != nw.N() {
		t.Fatal("MO_CDS broadcast must deliver to everyone")
	}
	flood := nw.Flood(0)
	if flood.ForwardCount() != nw.N() {
		t.Fatalf("flooding forwarders = %d, want all %d", flood.ForwardCount(), nw.N())
	}
}

// TestBackbonesBuiltOnce: a network builds each static backbone and its
// MO_CDS once; Summarize and every later request share that value.
func TestBackbonesBuiltOnce(t *testing.T) {
	nw := paperNetwork()
	nw.Summarize()
	s25, s3, mo := nw.StaticBackbone(Hop25), nw.StaticBackbone(Hop3), nw.MOCDS()
	if s25.Mode != Hop25 || s3.Mode != Hop3 {
		t.Fatalf("backbone modes %v and %v, want %v and %v", s25.Mode, s3.Mode, Hop25, Hop3)
	}
	nw.Summarize()
	if nw.StaticBackbone(Hop25) != s25 || nw.StaticBackbone(Hop3) != s3 || nw.MOCDS() != mo {
		t.Fatal("a backbone was built again")
	}
}

func TestSummarize(t *testing.T) {
	nw := paperNetwork()
	s := nw.Summarize()
	if s.N != 10 || s.Clusters != 4 || s.Static25Size != 9 {
		t.Fatalf("summary wrong: %+v", s)
	}
	if s.MOCDSSize < s.Static3Size {
		t.Fatalf("MO_CDS (%d) should not beat the greedy static backbone (%d) here",
			s.MOCDSSize, s.Static3Size)
	}
	out := s.String()
	for _, want := range []string{"n=10", "clusters=4", "static2.5=9"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Summary.String missing %q: %s", want, out)
		}
	}
}

func TestDynamicProtocolReuse(t *testing.T) {
	nw, err := NewRandomNetwork(NetworkSpec{N: 50, AvgDegree: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := nw.DynamicProtocol(Hop25)
	for src := 0; src < 10; src++ {
		res := p.Broadcast(src)
		if len(res.Received) != 50 {
			t.Fatalf("source %d: delivered %d/50", src, len(res.Received))
		}
	}
}

func TestAllowDisconnected(t *testing.T) {
	// A tiny radius with AllowDisconnected must not error.
	nw, err := NewRandomNetwork(NetworkSpec{N: 30, Radius: 0.5, Seed: 5, AllowDisconnected: true})
	if err != nil {
		t.Fatal(err)
	}
	if nw.N() != 30 {
		t.Fatalf("N = %d", nw.N())
	}
}

func TestSummaryAnalysisFields(t *testing.T) {
	nw, err := NewRandomNetwork(NetworkSpec{N: 60, AvgDegree: 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	s := nw.Summarize()
	if s.Clustering <= 0.3 || s.Clustering > 1 {
		t.Fatalf("UDG clustering coefficient %.2f out of the expected high range", s.Clustering)
	}
	if s.CutVertices < 0 || s.CutVertices >= s.N {
		t.Fatalf("cut vertices = %d", s.CutVertices)
	}
}
