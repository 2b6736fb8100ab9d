package dynamicb

import (
	"slices"
	"testing"

	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/graph"
)

// TestPiggybackIsFullCoverageSet pins the subtle rule of the paper's
// illustration: a clusterhead piggybacks its FULL coverage set, not the
// pruned one ("F(3)={9} and C(3)={1,2,4} are piggybacked"), because every
// clusterhead in C(v) either receives via F(v) or was excluded precisely
// because it already received.
func TestPiggybackIsFullCoverageSet(t *testing.T) {
	g := paperGraph()
	cl := cluster.LowestID(g)
	p := New(g, cl, coverage.Hop25)
	// Clusterhead 3 (0-based 2) receives from clusterhead 1 (0-based 0)
	// via node 7 (0-based 6), with C(1)∪{1} = {0,1,2} piggybacked.
	in := p.PacketForTest(0, []int{0, 1, 2}, []int{5, 6})
	fwd, cov := p.HeadPacketForTest(2, in, 6)
	// The updated need is only {3} (paper head 4): forward set = {8}.
	if !slices.Equal(fwd, []int{8}) {
		t.Fatalf("F(3) = %v, want {9} (0-based {8})", fwd)
	}
	// The piggyback is the full C(3) ∪ {3} = {0,1,3} ∪ {2}.
	if want := []int{0, 1, 2, 3}; !slices.Equal(cov, want) {
		t.Fatalf("piggybacked cov = %v, want full set %v", cov, want)
	}
}

// TestRelayNeighborExclusion pins the paper's 2.5-hop special case: "if
// clusterhead v is 3 hops away from u, and u uses a path (u, f, r, v) ...
// clusterheads in N(r) also receive the broadcast packet. These
// clusterheads can also be excluded: C(v) = C(v) − C(u) − {u} − N(r)".
func TestRelayNeighborExclusion(t *testing.T) {
	// Hand-built scenario:
	//   u=0 (head) — f=3 — r=4 — v=1 (head), and w=2 (head) adjacent to
	//   the relay r. v can also reach w via its member 5 (path 1-5-2).
	g := graph.FromEdges(6, [][2]int{
		{0, 3}, {3, 4}, {4, 1}, {4, 2}, {1, 5}, {5, 2},
	})
	cl := cluster.LowestID(g)
	// Validate the intended cluster structure before testing pruning.
	for _, h := range []int{0, 1, 2} {
		if !cl.IsHead(h) {
			t.Skipf("election gave heads %v; scenario needs 0,1,2 as heads", cl.Heads)
		}
	}
	p := New(g, cl, coverage.Hop25)
	// v=1 receives the packet from transmitter r=4. Regardless of what the
	// upstream head piggybacked, the N(r) rule alone must remove w=2 from
	// v's need: 2 is adjacent to the transmitter 4 and heard the same copy.
	in := p.PacketForTest(0, []int{0}, nil) // minimal piggyback: {u} only
	fwd, _ := p.HeadPacketForTest(1, in, 4)
	// Without the N(r) exclusion, v=1 would select node 5 to reach w=2.
	if slices.Contains(fwd, 5) {
		t.Fatalf("F(1) = %v: selected a gateway toward clusterhead 2, which "+
			"already heard relay 4's transmission (N(r) exclusion violated)", fwd)
	}
}

// TestExclusionSoundness: pruning must never cause delivery failure — for
// every source on the hand-built scenario, everyone receives.
func TestExclusionSoundnessHandBuilt(t *testing.T) {
	g := graph.FromEdges(6, [][2]int{
		{0, 3}, {3, 4}, {4, 1}, {4, 2}, {1, 5}, {5, 2},
	})
	cl := cluster.LowestID(g)
	for _, mode := range []coverage.Mode{coverage.Hop25, coverage.Hop3} {
		p := New(g, cl, mode)
		for src := 0; src < g.N(); src++ {
			res := p.Broadcast(src)
			if len(res.Received) != g.N() {
				t.Fatalf("%v: source %d delivered %d/%d", mode, src, len(res.Received), g.N())
			}
		}
	}
}
