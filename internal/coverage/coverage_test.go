package coverage

import (
	"reflect"
	"testing"
	"testing/quick"

	"clustercast/internal/cluster"
	"clustercast/internal/geom"
	"clustercast/internal/graph"
	"clustercast/internal/rng"
	"clustercast/internal/topology"
)

// paperGraph builds the 10-node network of the paper's Figure 3, 0-based
// (paper node k ↦ k−1). Edges are taken from the figure's walk-through.
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

func paperSetup(t *testing.T, mode Mode) (*graph.Graph, *cluster.Clustering, *Builder) {
	t.Helper()
	g := paperGraph()
	cl := cluster.LowestID(g)
	if err := cl.Validate(g); err != nil {
		t.Fatal(err)
	}
	return g, cl, NewBuilder(g, cl, mode)
}

// keys returns the sorted members of a set (nil when empty, for easy
// reflect.DeepEqual comparisons). It accepts both graph set
// representations (Bitset, SparseSet).
func keys(b interface{ Members() []int }) []int {
	out := b.Members()
	if len(out) == 0 {
		return nil
	}
	return out
}

func TestCH1MatchesPaperMessages(t *testing.T) {
	_, _, b := paperSetup(t, Hop25)
	// Paper: CH_HOP1(9)={3*,4}, CH_HOP1(5)={1*}, CH_HOP1(6)={1*,2},
	// CH_HOP1(7)={1*,3}, CH_HOP1(8)={2*,3}, CH_HOP1(10)={3*,4}.
	want := map[int][]int{
		8: {2, 3}, // paper node 9
		4: {0},    // paper node 5
		5: {0, 1}, // paper node 6
		6: {0, 2}, // paper node 7
		7: {1, 2}, // paper node 8
		9: {2, 3}, // paper node 10
	}
	for v, w := range want {
		if got := b.CH1(v); !reflect.DeepEqual(got, w) {
			t.Errorf("CH1(%d) = %v, want %v (paper node %d)", v, got, w, v+1)
		}
	}
}

func TestCH2MatchesPaperMessages(t *testing.T) {
	_, _, b := paperSetup(t, Hop25)
	// Paper: CH_HOP2(9) = {1[5]} — clusterhead 1 via relay 5.
	if got := b.CH2(8); !reflect.DeepEqual(got, map[int]int{0: 4}) {
		t.Errorf("CH2(9) = %v, want {1[5]} (0-based {0:4})", got)
	}
	// Paper: CH_HOP2(5) = {3[9]}.
	if got := b.CH2(4); !reflect.DeepEqual(got, map[int]int{2: 8}) {
		t.Errorf("CH2(5) = %v, want {3[9]} (0-based {2:8})", got)
	}
	// Paper note: node 4 is NOT in node 5's 2-hop clusterhead set under the
	// 2.5-hop rule (only relays' own clusterheads count).
	if _, ok := b.CH2(4)[3]; ok {
		t.Error("2.5-hop CH2(5) must not contain clusterhead 4")
	}
}

func TestCH2Hop3IncludesNonMemberRelays(t *testing.T) {
	_, _, b := paperSetup(t, Hop3)
	// Under the 3-hop rule node 5 also reports clusterhead 4 via 9
	// (9 is adjacent to 4 even though 9 is not a member of 4's cluster).
	got := b.CH2(4)
	if !reflect.DeepEqual(got, map[int]int{2: 8, 3: 8}) {
		t.Errorf("3-hop CH2(5) = %v, want {2:8, 3:8}", got)
	}
}

func TestPaperCoverageSets25(t *testing.T) {
	_, _, b := paperSetup(t, Hop25)
	// Paper (1-based): C(1)=C²(1)={2,3}; C(2)=C²(2)={1,3};
	// C(3)=C²(3)={1,2,4}; C(4)=C²(4)∪C³(4)={3}∪{1}.
	cases := []struct {
		head   int
		c2, c3 []int
	}{
		{0, []int{1, 2}, nil},
		{1, []int{0, 2}, nil},
		{2, []int{0, 1, 3}, nil},
		{3, []int{2}, []int{0}},
	}
	for _, c := range cases {
		cov := b.Of(c.head)
		if got := keys(cov.C2); !reflect.DeepEqual(got, c.c2) {
			t.Errorf("C²(%d) = %v, want %v", c.head+1, got, c.c2)
		}
		if got := keys(cov.C3); !reflect.DeepEqual(got, c.c3) {
			t.Errorf("C³(%d) = %v, want %v", c.head+1, got, c.c3)
		}
	}
}

func TestPaperCoverageSets3Hop(t *testing.T) {
	_, _, b := paperSetup(t, Hop3)
	// With the 3-hop rule, 4 ∈ C³(1) (path 1-5-9-4) and the cluster graph
	// becomes symmetric (Figure 4(b)).
	cov := b.Of(0)
	if got := keys(cov.C3); !reflect.DeepEqual(got, []int{3}) {
		t.Errorf("3-hop C³(1) = %v, want {4} (0-based {3})", got)
	}
}

func TestPaperIndirectConnectors(t *testing.T) {
	_, _, b := paperSetup(t, Hop25)
	// C³(4) = {1} reached via pair (9, 5): head 4 — 9 — 5 — 1.
	cov := b.Of(3)
	cn := cov.Connector(8)
	if cn == nil || len(cn.Indirect) == 0 {
		t.Fatalf("head 4 should have indirect coverage via node 9; got %v", cov.Conns)
	}
	if r, ok := cn.Relay(0); !ok || r != 4 {
		t.Fatalf("head 4 should reach clusterhead 1 via relay 5 (0-based 4), got %v", cn.Indirect)
	}
}

func TestPaperDirectConnectors(t *testing.T) {
	_, _, b := paperSetup(t, Hop25)
	cov := b.Of(0) // paper clusterhead 1
	// Neighbor 6 covers {2}, neighbor 7 covers {3}, neighbor 5 covers none.
	if cn := cov.Connector(5); cn == nil || !reflect.DeepEqual(cn.Direct, []int{1}) {
		t.Errorf("Direct via node 6 = %v, want {2} (0-based {1})", cn)
	}
	if cn := cov.Connector(6); cn == nil || !reflect.DeepEqual(cn.Direct, []int{2}) {
		t.Errorf("Direct via node 7 = %v, want {3} (0-based {2})", cn)
	}
	if cn := cov.Connector(4); cn != nil && len(cn.Direct) != 0 {
		t.Errorf("node 5 directly covers no 2-hop clusterhead of head 1")
	}
}

func TestClusterGraphPaperFigure4(t *testing.T) {
	// Figure 4(a): 2.5-hop cluster graph has 4→1 but not 1→4.
	_, _, b25 := paperSetup(t, Hop25)
	d, idx := ClusterGraph(b25)
	if !d.HasEdge(idx[3], idx[0]) {
		t.Error("2.5-hop cluster graph must contain edge 4→1")
	}
	if d.HasEdge(idx[0], idx[3]) {
		t.Error("2.5-hop cluster graph must NOT contain edge 1→4")
	}
	if !d.StronglyConnected() {
		t.Error("2.5-hop cluster graph must be strongly connected (Theorem 1)")
	}

	// Figure 4(b): 3-hop cluster graph is symmetric.
	_, _, b3 := paperSetup(t, Hop3)
	d3, idx3 := ClusterGraph(b3)
	if !d3.HasEdge(idx3[0], idx3[3]) || !d3.HasEdge(idx3[3], idx3[0]) {
		t.Error("3-hop cluster graph must contain both 1→4 and 4→1")
	}
	for u := 0; u < d3.N(); u++ {
		for _, v := range d3.Out(u) {
			if !d3.HasEdge(v, u) {
				t.Fatalf("3-hop cluster graph must be symmetric; (%d,%d) one-way", u, v)
			}
		}
	}
}

func TestCoverageSetAndSize(t *testing.T) {
	_, _, b := paperSetup(t, Hop25)
	cov := b.Of(3)
	if cov.Size() != 2 {
		t.Fatalf("Size = %d, want 2", cov.Size())
	}
	if c2, c3 := keys(cov.C2), keys(cov.C3); !reflect.DeepEqual(c2, []int{2}) || !reflect.DeepEqual(c3, []int{0}) {
		t.Fatalf("C2 = %v, C3 = %v, want [2] and [0]", c2, c3)
	}
}

func TestOfPanicsOnNonHead(t *testing.T) {
	_, _, b := paperSetup(t, Hop25)
	defer func() {
		if recover() == nil {
			t.Fatal("Of(non-head) must panic")
		}
	}()
	b.Of(5)
}

func TestAllCoversAllHeads(t *testing.T) {
	_, cl, b := paperSetup(t, Hop25)
	for _, h := range cl.Heads {
		if cov := b.Of(h); cov == nil || cov.Head != h {
			t.Fatalf("missing/incorrect coverage for head %d", h)
		}
	}
}

// randomClustered draws a random connected clustered network.
func randomClustered(seed uint64, n int, deg float64) (*graph.Graph, *cluster.Clustering, bool) {
	r := rng.New(seed)
	nw, err := topology.Generate(topology.Config{
		N: n, Bounds: geom.Square(100), AvgDegree: deg, RequireConnected: true, MaxAttempts: 200,
	}, r)
	if err != nil {
		return nil, nil, false
	}
	return nw.G, cluster.LowestID(nw.G), true
}

// Property: C² holds exactly the clusterheads at BFS distance 2; C³ only
// clusterheads at distance 3 (2.5-hop: a subset; 3-hop: all of them).
func TestQuickCoverageDistances(t *testing.T) {
	check := func(seed uint64, mode Mode) bool {
		g, cl, ok := randomClustered(seed, 35, 7)
		if !ok {
			return true // skip rare generation failure
		}
		b := NewBuilder(g, cl, mode)
		for _, h := range cl.Heads {
			dist := g.BFS(h)
			cov := b.Of(h)
			// C² = heads at distance exactly 2.
			for _, w := range cl.Heads {
				if w == h {
					continue
				}
				if cov.C2.Has(w) != (dist[w] == 2) {
					return false
				}
			}
			for _, w := range cov.C3.Members() {
				if dist[w] != 3 || !cl.IsHead(w) {
					return false
				}
			}
			if mode == Hop3 {
				for _, w := range cl.Heads {
					if dist[w] == 3 && !cov.C3.Has(w) {
						return false
					}
				}
			} else {
				// 2.5-hop: w ∈ C³ iff some member of w's cluster is within
				// N²(h) and w is at distance 3.
				for _, w := range cl.Heads {
					if dist[w] != 3 {
						continue
					}
					hasMember := false
					for _, m := range cl.Members[w] {
						if m != w && dist[m] >= 0 && dist[m] <= 2 {
							hasMember = true
							break
						}
					}
					if cov.C3.Has(w) != hasMember {
						return false
					}
				}
			}
		}
		return true
	}
	f25 := func(seed uint64) bool { return check(seed, Hop25) }
	f3 := func(seed uint64) bool { return check(seed, Hop3) }
	if err := quick.Check(f25, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatalf("2.5-hop: %v", err)
	}
	if err := quick.Check(f3, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatalf("3-hop: %v", err)
	}
}

// Property: the connector bookkeeping is sound — Direct connectors are
// adjacent to both the head and the covered clusterhead; Indirect pairs
// form real paths head—v—r—w; and under 2.5-hop the relay r is a member of
// w's cluster.
func TestQuickConnectorsAreSound(t *testing.T) {
	check := func(seed uint64, mode Mode) bool {
		g, cl, ok := randomClustered(seed, 35, 7)
		if !ok {
			return true
		}
		b := NewBuilder(g, cl, mode)
		for _, h := range cl.Heads {
			cov := b.Of(h)
			for _, cn := range cov.Conns {
				if !g.HasEdge(h, cn.V) {
					return false
				}
				for _, w := range cn.Direct {
					if !g.HasEdge(cn.V, w) || !cov.C2.Has(w) {
						return false
					}
				}
				for _, e := range cn.Indirect {
					if !g.HasEdge(cn.V, e.R) || !g.HasEdge(e.R, e.W) || !cov.C3.Has(e.W) {
						return false
					}
					if mode == Hop25 && cl.Head[e.R] != e.W {
						return false
					}
				}
			}
		}
		return true
	}
	f25 := func(seed uint64) bool { return check(seed, Hop25) }
	f3 := func(seed uint64) bool { return check(seed, Hop3) }
	if err := quick.Check(f25, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatalf("2.5-hop: %v", err)
	}
	if err := quick.Check(f3, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatalf("3-hop: %v", err)
	}
}

// Property (Theorem 1 prerequisite, proved in [Wu & Lou 2003]): the cluster
// graph generated with either coverage set over a connected network is
// strongly connected.
func TestQuickClusterGraphStronglyConnected(t *testing.T) {
	check := func(seed uint64, mode Mode) bool {
		g, cl, ok := randomClustered(seed, 40, 6)
		if !ok {
			return true
		}
		b := NewBuilder(g, cl, mode)
		d, _ := ClusterGraph(b)
		return d.StronglyConnected()
	}
	f25 := func(seed uint64) bool { return check(seed, Hop25) }
	f3 := func(seed uint64) bool { return check(seed, Hop3) }
	if err := quick.Check(f25, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatalf("2.5-hop: %v", err)
	}
	if err := quick.Check(f3, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatalf("3-hop: %v", err)
	}
}

// Property: C³ under 2.5-hop is a subset of C³ under 3-hop, and C² is
// identical across modes.
func TestQuickModeContainment(t *testing.T) {
	f := func(seed uint64) bool {
		g, cl, ok := randomClustered(seed, 35, 7)
		if !ok {
			return true
		}
		b25 := NewBuilder(g, cl, Hop25)
		b3 := NewBuilder(g, cl, Hop3)
		for _, h := range cl.Heads {
			c25, c3 := b25.Of(h), b3.Of(h)
			if !reflect.DeepEqual(keys(c25.C2), keys(c3.C2)) {
				return false
			}
			for _, w := range c25.C3.Members() {
				if !c3.C3.Has(w) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestCoverageWithinPackingBound: lowest-ID clusterheads are pairwise
// non-adjacent and C(u) holds only clusterheads within three hops of u.
// On a unit-disk graph of range r those heads lie within 3r of u, and
// their r/2-disks, u's own included, are disjoint inside the disk of
// radius 3.5r around u: |C²(u)| + |C³(u)| ≤ (3.5r)²/(r/2)² − 1 = 48 at
// any n and density. graph.SparseSet holds these sets on that bound.
func TestCoverageWithinPackingBound(t *testing.T) {
	const packing = 48
	largest := 0
	for _, d := range []float64{4, 18, 60} {
		for seed := uint64(1); seed <= 3; seed++ {
			nw, err := topology.Generate(topology.Config{N: 2000, Bounds: geom.Square(100), AvgDegree: d}, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			cl := cluster.LowestID(nw.G)
			for _, mode := range []Mode{Hop25, Hop3} {
				b := NewBuilder(nw.G, cl, mode)
				for _, h := range cl.Heads {
					size := b.Of(h).Size()
					if size > packing {
						t.Fatalf("d=%g seed %d %v: head %d covers %d clusterheads, over the packing bound %d",
							d, seed, mode, h, size, packing)
					}
					largest = max(largest, size)
				}
			}
		}
	}
	t.Logf("largest coverage set: %d clusterheads", largest)
}

func TestModeString(t *testing.T) {
	if Hop25.String() != "2.5-hop" || Hop3.String() != "3-hop" {
		t.Fatal("Mode.String wrong")
	}
	if Mode(9).String() != "unknown" {
		t.Fatal("unknown mode string wrong")
	}
}

func BenchmarkBuilder100(b *testing.B) {
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
		bb := NewBuilder(nw.G, cl, Hop25)
		for _, h := range cl.Heads {
			_ = bb.Of(h)
		}
	}
}
