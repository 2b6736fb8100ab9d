package sim

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"clustercast/internal/backbone"
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

func TestDistributedMatchesPaperExample(t *testing.T) {
	g := paperGraph()
	out := Run(g, coverage.Hop25)
	if !reflect.DeepEqual(out.Heads, []int{0, 1, 2, 3}) {
		t.Fatalf("Heads = %v", out.Heads)
	}
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
	if got := sortedKeys(out.Backbone); !slices.Equal(got, want) {
		t.Fatalf("distributed backbone = %v, want %v", got, want)
	}
}

// sortedKeys returns the members of a map-form set, ascending.
func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for v, in := range set {
		if in {
			out = append(out, v)
		}
	}
	slices.Sort(out)
	return out
}

func TestMessageCountsPaperExample(t *testing.T) {
	g := paperGraph()
	out := Run(g, coverage.Hop25)
	c := out.Counters
	n := g.N()
	heads := len(out.Heads)
	nonHeads := n - heads
	if c.PerType[Hello] != n {
		t.Fatalf("HELLO = %d, want %d", c.PerType[Hello], n)
	}
	if c.PerType[ClusterHead]+c.PerType[NonClusterHead] != n {
		t.Fatalf("CLUSTER_HEAD+NON_CLUSTER_HEAD = %d, want %d",
			c.PerType[ClusterHead]+c.PerType[NonClusterHead], n)
	}
	if c.PerType[ClusterHead] != heads {
		t.Fatalf("CLUSTER_HEAD = %d, want %d", c.PerType[ClusterHead], heads)
	}
	if c.PerType[CHHop1] != nonHeads || c.PerType[CHHop2] != nonHeads {
		t.Fatalf("CH_HOP1/CH_HOP2 = %d/%d, want %d each",
			c.PerType[CHHop1], c.PerType[CHHop2], nonHeads)
	}
	// GATEWAY: one per head plus at most one forward per selected gateway
	// per head that selected it.
	maxForwards := 0
	for _, sel := range out.PerHead {
		maxForwards += len(sel.Gateways)
	}
	if c.PerType[Gateway] < heads || c.PerType[Gateway] > heads+maxForwards {
		t.Fatalf("GATEWAY = %d, want in [%d, %d]", c.PerType[Gateway], heads, heads+maxForwards)
	}
}

// crossCheck holds the message-level protocol to the centralized
// constructions: the oracle's clustering to cluster.LowestID, every
// head's coverage set assembled from received CH_HOP1/CH_HOP2 reports
// (C², C³ and each connector's contents) to coverage.Builder.Of, and its
// backbone to backbone.BuildStaticFrom. Run must then match the oracle.
func crossCheck(t testing.TB, g *graph.Graph, mode coverage.Mode) {
	t.Helper()
	out, covs := runOracle(g, mode)
	cl := cluster.LowestID(g)
	if !reflect.DeepEqual(out.Heads, cl.Heads) {
		t.Fatalf("%v: heads differ: distributed %v vs centralized %v", mode, out.Heads, cl.Heads)
	}
	for v := range out.Head {
		if out.Head[v] != cl.Head[v] {
			t.Fatalf("%v: node %d head %d vs centralized %d", mode, v, out.Head[v], cl.Head[v])
		}
	}
	b := coverage.NewBuilder(g, cl, mode)
	if len(covs) != len(cl.Heads) {
		t.Fatalf("%v: %d heads assembled coverage, want %d", mode, len(covs), len(cl.Heads))
	}
	for _, h := range cl.Heads {
		want, got := b.Of(h), covs[h]
		if got == nil {
			t.Fatalf("%v: head %d assembled no coverage", mode, h)
		}
		if got.Head != want.Head || got.Mode != want.Mode || got.N != want.N {
			t.Fatalf("%v: head %d coverage identity differs", mode, h)
		}
		if !slices.Equal(got.C2, want.C2) {
			t.Fatalf("%v: head %d C² differs: %v vs %v", mode, h, got.C2, want.C2)
		}
		if !slices.Equal(got.C3, want.C3) {
			t.Fatalf("%v: head %d C³ differs: %v vs %v", mode, h, got.C3, want.C3)
		}
		if !slices.Equal(got.Conns, want.Conns) || !slices.Equal(got.Direct, want.Direct) || !slices.Equal(got.Indirect, want.Indirect) {
			t.Fatalf("%v: head %d connectors differ:\n  distributed %v %v %v\n  centralized %v %v %v", mode, h,
				got.Conns, got.Direct, got.Indirect, want.Conns, want.Direct, want.Indirect)
		}
	}
	st := backbone.BuildStaticFrom(b, cl)
	if got, want := sortedKeys(out.Backbone), st.Nodes.Members(); !slices.Equal(got, want) {
		t.Fatalf("%v: backbone differs: distributed %v vs centralized %v", mode, got, want)
	}
	if got := Run(g, mode); !reflect.DeepEqual(got.Backbone, out.Backbone) || !reflect.DeepEqual(got.Counters, out.Counters) {
		t.Fatalf("%v: Run differs from the oracle: %v vs %v", mode, got.Counters.String(), out.Counters.String())
	}
}

func TestDistributedMatchesCentralizedPaperGraph(t *testing.T) {
	crossCheck(t, paperGraph(), coverage.Hop25)
	crossCheck(t, paperGraph(), coverage.Hop3)
}

func TestDistributedMatchesCentralizedLine(t *testing.T) {
	nw := topology.LineTopology(25, 1.0, 1.2)
	crossCheck(t, nw.G, coverage.Hop25)
	crossCheck(t, nw.G, coverage.Hop3)
}

// Property: distributed == centralized on random connected networks, both
// modes, both paper densities.
func TestQuickDistributedMatchesCentralized(t *testing.T) {
	f := func(seed uint64, dense bool) bool {
		deg := 6.0
		if dense {
			deg = 18.0
		}
		r := rng.New(seed)
		nw, err := topology.Generate(topology.Config{
			N: 45, Bounds: geom.Square(100), AvgDegree: deg,
			RequireConnected: true, MaxAttempts: 400,
		}, r)
		if err != nil {
			return true
		}
		crossCheck(t, nw.G, coverage.Hop25)
		crossCheck(t, nw.G, coverage.Hop3)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestMessageComplexityLinear verifies the §4 message-optimality claim:
// total construction messages grow linearly in n. We check that messages
// per node stay bounded by a small constant across a 5× size range.
func TestMessageComplexityLinear(t *testing.T) {
	r := rng.New(77)
	perNode := map[int]float64{}
	for _, n := range []int{20, 50, 100} {
		sum := 0.0
		const samples = 5
		for i := 0; i < samples; i++ {
			nw, err := topology.Generate(topology.Config{
				N: n, Bounds: geom.Square(100), AvgDegree: 6,
				RequireConnected: true, MaxAttempts: 2000,
			}, r)
			if err != nil {
				t.Fatal(err)
			}
			out := Run(nw.G, coverage.Hop25)
			sum += float64(out.Counters.Total())
		}
		perNode[n] = sum / samples / float64(n)
	}
	for n, v := range perNode {
		if v > 5 {
			t.Fatalf("n=%d: %.2f messages per node exceeds the O(n) budget", n, v)
		}
	}
	// Per-node cost must not grow with n (allow 20% noise).
	if perNode[100] > perNode[20]*1.2 {
		t.Fatalf("messages per node grew: n=20: %.2f, n=100: %.2f", perNode[20], perNode[100])
	}
}

func TestRoundsLinearOnChain(t *testing.T) {
	// The ID-monotone chain is the worst case: Θ(n) election rounds.
	nw := topology.LineTopology(30, 1.0, 1.2)
	out := Run(nw.G, coverage.Hop25)
	if out.Counters.Rounds < 15 {
		t.Fatalf("chain of 30 should need ≥15 rounds, got %d", out.Counters.Rounds)
	}
	if out.Counters.Rounds > 4*30 {
		t.Fatalf("rounds %d exceed the O(n) bound", out.Counters.Rounds)
	}
}

func TestCountersString(t *testing.T) {
	g := paperGraph()
	out := Run(g, coverage.Hop25)
	s := out.Counters.String()
	for _, want := range []string{"total=", "HELLO=", "GATEWAY="} {
		if !contains(s, want) {
			t.Fatalf("Counters.String() missing %q: %s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestMsgTypeString(t *testing.T) {
	names := map[MsgType]string{
		Hello: "HELLO", ClusterHead: "CLUSTER_HEAD", NonClusterHead: "NON_CLUSTER_HEAD",
		CHHop1: "CH_HOP1", CHHop2: "CH_HOP2", Gateway: "GATEWAY",
	}
	for typ, want := range names {
		if typ.String() != want {
			t.Fatalf("%d.String() = %q, want %q", typ, typ.String(), want)
		}
	}
	if MsgType(99).String() != "UNKNOWN" {
		t.Fatal("unknown type string")
	}
}

func TestSingleNode(t *testing.T) {
	g := graph.New(1)
	out := Run(g, coverage.Hop25)
	if !reflect.DeepEqual(out.Heads, []int{0}) {
		t.Fatalf("single node must elect itself: %v", out.Heads)
	}
	if !out.Backbone[0] || len(out.Backbone) != 1 {
		t.Fatalf("backbone = %v", out.Backbone)
	}
}

func BenchmarkDistributedRun100(b *testing.B) {
	r := rng.New(1)
	nw, err := topology.Generate(topology.Config{
		N: 100, Bounds: geom.Square(100), AvgDegree: 18, RequireConnected: true,
	}, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Run(nw.G, coverage.Hop25)
	}
}

// allocPerNode returns the bytes one warm Run allocates, per node, on an
// n-node, degree-18 unit-disk network (seed 5).
func allocPerNode(t *testing.T, n int) float64 {
	t.Helper()
	nw, err := topology.Generate(topology.Config{
		N: n, Bounds: geom.Square(100), AvgDegree: 18, RequireConnected: true, MaxAttempts: 50,
	}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	Run(nw.G, coverage.Hop25)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Run(nw.G, coverage.Hop25)
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestRunAllocLinear: the wire protocol allocates O(n) bytes, not Θ(n)
// per clusterhead. One coverage value is refilled for every head and the
// selections share one scratch, so the bytes per node stay flat as n
// grows fourfold.
func TestRunAllocLinear(t *testing.T) {
	small, large := allocPerNode(t, 2000), allocPerNode(t, 8000)
	if large > 1.5*small {
		t.Fatalf("Run allocates %.0f B/node at n=8000 but %.0f B/node at n=2000 (%.1fx, want <= 1.5x)",
			large, small, large/small)
	}
}
