package cluster

import (
	"reflect"
	"testing"
	"testing/quick"

	"clustercast/internal/geom"
	"clustercast/internal/graph"
	"clustercast/internal/rng"
	"clustercast/internal/topology"
)

func TestLowestIDPath(t *testing.T) {
	// Path 0-1-2-3-4: node 0 declares first; 1 joins; 2 declares (after 1
	// joined); 3 joins 2; 4... round 1: candidates all. 0 wins (lowest among
	// {0,1}); 2 has candidate neighbors {1,3}, 1<2 blocks; 3 blocked by 2;
	// 4: neighbors {3}, 3<4 blocks. Round 1 joins: 1→0. Round 2: 2 wins
	// (neighbors 1 member, 3 candidate, 2<3); 4 blocked by 3. Joins: 3→2.
	// Round 3: 4 wins. Heads {0,2,4}.
	g := graph.FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	c := LowestID(g)
	if !reflect.DeepEqual(c.Heads, []int{0, 2, 4}) {
		t.Fatalf("Heads = %v, want [0 2 4]", c.Heads)
	}
	if c.Head[1] != 0 || c.Head[3] != 2 {
		t.Fatalf("memberships wrong: %v", c.Head)
	}
	if err := c.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestLowestIDStar(t *testing.T) {
	// Star centered at 3 with leaves 0,1,2: leaf 0 declares, center joins 0,
	// then leaves 1 and 2 declare in round 2 (their only neighbor, 3, left).
	g := graph.FromEdges(4, [][2]int{{3, 0}, {3, 1}, {3, 2}})
	c := LowestID(g)
	if !reflect.DeepEqual(c.Heads, []int{0, 1, 2}) {
		t.Fatalf("Heads = %v, want [0 1 2]", c.Heads)
	}
	if c.Head[3] != 0 {
		t.Fatalf("center should join head 0, got %d", c.Head[3])
	}
	if err := c.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestLowestIDSingleNode(t *testing.T) {
	g := graph.New(1)
	c := LowestID(g)
	if !reflect.DeepEqual(c.Heads, []int{0}) || c.Head[0] != 0 {
		t.Fatalf("single node must be its own head: %+v", c)
	}
}

func TestLowestIDDisconnected(t *testing.T) {
	g := graph.FromEdges(4, [][2]int{{0, 1}, {2, 3}})
	c := LowestID(g)
	if !reflect.DeepEqual(c.Heads, []int{0, 2}) {
		t.Fatalf("Heads = %v", c.Heads)
	}
	if err := c.Validate(g); err != nil {
		t.Fatal(err)
	}
}

// TestRoundVsSequentialDivergence pins down the known difference between
// the round-synchronous protocol and a naive sequential greedy pass: with
// edges 0-1, 1-2, 3-4, 2-4, node 4 hears head 3's round-1 declaration and
// joins 3, even though head 2 (declared in round 2) has a smaller ID.
func TestRoundVsSequentialDivergence(t *testing.T) {
	g := graph.FromEdges(5, [][2]int{{0, 1}, {1, 2}, {3, 4}, {2, 4}})
	c := LowestID(g)
	if !reflect.DeepEqual(c.Heads, []int{0, 2, 3}) {
		t.Fatalf("Heads = %v, want [0 2 3]", c.Heads)
	}
	if c.Head[4] != 3 {
		t.Fatalf("node 4 must join head 3 (first declaration heard), got %d", c.Head[4])
	}
	if err := c.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestPaperExampleClustering(t *testing.T) {
	// The 10-node network of the paper's Figure 3: nodes 1..4 become heads
	// of clusters C1..C4; 5,6,7 join C1; 8 joins C2; 9,10 join C3.
	// We use 0-based IDs shifted down by one (paper node k = our k−1) and
	// the adjacency implied by the figure's walk-through:
	//   CH_HOP1(9)= {3*,4}  → 9 adj 3,4     (paper IDs)
	//   CH_HOP1(5)= {1*}    → 5 adj 1
	//   CH_HOP2(9)= {1[5]}  → 9 adj 5
	//   CH_HOP1(6)= {1*,2}, CH_HOP1(7)= {1*,3}, CH_HOP1(8)= {2*,3},
	//   CH_HOP1(10)={3*,4}.
	g := paperFigure3Graph()
	c := LowestID(g)
	wantHeads := []int{0, 1, 2, 3} // paper nodes 1,2,3,4
	if !reflect.DeepEqual(c.Heads, wantHeads) {
		t.Fatalf("Heads = %v, want %v", c.Heads, wantHeads)
	}
	wantHead := map[int]int{4: 0, 5: 0, 6: 0, 7: 1, 8: 2, 9: 2}
	for v, h := range wantHead {
		if c.Head[v] != h {
			t.Fatalf("node %d (paper %d) head = %d, want %d", v, v+1, c.Head[v], h)
		}
	}
	if err := c.Validate(g); err != nil {
		t.Fatal(err)
	}
}

// paperFigure3Graph builds the 10-node example network of Figure 3 with
// 0-based IDs (paper node k ↦ k−1).
func paperFigure3Graph() *graph.Graph {
	// Paper edges (1-based): 1-5, 1-6, 1-7, 2-6, 2-8, 3-7, 3-8, 3-9, 3-10,
	// 4-9, 4-10, 5-9.
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

func TestHighestDegree(t *testing.T) {
	// Star with center 3: center has max degree, becomes the single head.
	g := graph.FromEdges(4, [][2]int{{3, 0}, {3, 1}, {3, 2}})
	c := HighestDegree(g)
	if !reflect.DeepEqual(c.Heads, []int{3}) {
		t.Fatalf("Heads = %v, want [3]", c.Heads)
	}
	if err := c.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestHighestDegreeTieBreaksByID(t *testing.T) {
	// 4-cycle: all degree 2; lowest ID 0 wins first.
	g := graph.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	c := HighestDegree(g)
	if c.Head[0] != 0 {
		t.Fatalf("node 0 should be head, got head %d", c.Head[0])
	}
	if err := c.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestLineWorstCaseRounds(t *testing.T) {
	// Monotone chain 0-1-2-...-n−1 is the paper's worst case: Θ(n) rounds.
	n := 31
	edges := make([][2]int, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	g := graph.FromEdges(n, edges)
	c := LowestID(g)
	if c.Rounds < n/2-1 {
		t.Fatalf("chain should need ~n/2 rounds, got %d for n=%d", c.Rounds, n)
	}
	if err := c.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := graph.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	c := LowestID(g)
	// Corrupt: point node 1 at a non-adjacent head.
	c2 := &Clustering{Head: append([]int(nil), c.Head...), Heads: c.Heads}
	c2.Head[3] = 0 // 3 is not adjacent to 0
	if err := c2.Validate(g); err == nil {
		t.Fatal("Validate must reject member not adjacent to head")
	}
	c3 := &Clustering{Head: []int{0, 1}, Heads: []int{0, 1}}
	if err := c3.Validate(g); err == nil {
		t.Fatal("Validate must reject wrong length")
	}
}

func TestNumClusters(t *testing.T) {
	g := paperFigure3Graph()
	c := LowestID(g)
	if c.NumClusters() != 4 {
		t.Fatalf("NumClusters = %d", c.NumClusters())
	}
}

// Property: on random unit disk graphs, lowest-ID clustering always yields
// a valid clustering (heads = maximal independent set, members adjacent).
func TestQuickLowestIDValid(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nw, err := topology.Generate(topology.Config{
			N: 40, Bounds: geom.Square(100), AvgDegree: 8,
		}, r)
		if err != nil {
			return false
		}
		c := LowestID(nw.G)
		return c.Validate(nw.G) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: highest-degree clustering is also always valid.
func TestQuickHighestDegreeValid(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nw, err := topology.Generate(topology.Config{
			N: 40, Bounds: geom.Square(100), AvgDegree: 8,
		}, r)
		if err != nil {
			return false
		}
		c := HighestDegree(nw.G)
		return c.Validate(nw.G) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the head set produced by lowest-ID equals the greedy maximal
// independent set taken in round order — i.e. it is some MIS; verify
// maximality directly: adding any non-head must break independence.
func TestQuickHeadsAreMaximalIndependentSet(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nw, err := topology.Generate(topology.Config{
			N: 30, Bounds: geom.Square(80), AvgDegree: 6,
		}, r)
		if err != nil {
			return false
		}
		c := LowestID(nw.G)
		hs := graph.NewBitset(nw.G.N())
		for _, h := range c.Heads {
			hs.Add(h)
		}
		if !nw.G.IsIndependentSet(hs) {
			return false
		}
		for v := 0; v < nw.G.N(); v++ {
			if hs.Has(v) {
				continue
			}
			hs.Add(v)
			if nw.G.IsIndependentSet(hs) {
				return false // could have added v: not maximal
			}
			hs.Remove(v)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLowestID100(b *testing.B) {
	r := rng.New(1)
	nw, err := topology.Generate(topology.Config{
		N: 100, Bounds: geom.Square(100), AvgDegree: 18, RequireConnected: true,
	}, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = LowestID(nw.G)
	}
}
