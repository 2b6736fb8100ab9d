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

// roundElect is the round-synchronous election the package comment
// describes, run round by round: the reference the one-pass
// Workspace.Elect must reproduce. Priority ties go to the lower ID, as in
// Elect.
func roundElect(g *graph.Graph, prio Priority) *Clustering {
	const (
		candidate = iota
		head
		member
	)
	n := g.N()
	rank, tie := make([]int, n), make([]int, n)
	for v := range rank {
		rank[v], tie[v] = prio(v)
	}
	better := func(a, b int) bool {
		if rank[a] != rank[b] {
			return rank[a] < rank[b]
		}
		if tie[a] != tie[b] {
			return tie[a] < tie[b]
		}
		return a < b
	}
	state, headOf, when := make([]int, n), make([]int, n), make([]int, n)
	rounds := 0
	for remaining := n; remaining > 0; {
		rounds++
		// Phase 1: every candidate with no better candidate neighbor
		// declares, all at once.
		var declared []int
		for v := 0; v < n; v++ {
			if state[v] != candidate {
				continue
			}
			wins := true
			for _, u32 := range g.Neighbors(v) {
				u := int(u32)
				if state[u] == candidate && better(u, v) {
					wins = false
					break
				}
			}
			if wins {
				declared = append(declared, v)
			}
		}
		if len(declared) == 0 {
			panic("roundElect: no candidate declared")
		}
		for _, v := range declared {
			state[v], headOf[v], when[v] = head, v, rounds
			remaining--
		}
		// Phase 2: every candidate that hears a head joins the best one.
		for v := 0; v < n; v++ {
			if state[v] != candidate {
				continue
			}
			best := -1
			for _, u32 := range g.Neighbors(v) {
				u := int(u32)
				if state[u] == head && (best == -1 || better(u, best)) {
					best = u
				}
			}
			if best != -1 {
				state[v], headOf[v], when[v] = member, best, rounds
				remaining--
			}
		}
	}
	c := &Clustering{Head: headOf, Rounds: rounds, When: when}
	for v, h := range headOf {
		if v == h {
			c.Heads = append(c.Heads, h)
		}
	}
	return c
}

// requireSameClustering asserts an election reproduced the reference
// Clustering bit for bit: Head, Heads, Rounds, When.
func requireSameClustering(t *testing.T, want, got *Clustering, ctx string) {
	t.Helper()
	if !reflect.DeepEqual(want.Head, got.Head) {
		t.Fatalf("%s: Head differs\nwant %v\ngot  %v", ctx, want.Head, got.Head)
	}
	if !reflect.DeepEqual(want.Heads, got.Heads) {
		t.Fatalf("%s: Heads differ\nwant %v\ngot  %v", ctx, want.Heads, got.Heads)
	}
	if want.Rounds != got.Rounds {
		t.Fatalf("%s: Rounds %d != %d", ctx, got.Rounds, want.Rounds)
	}
	if !reflect.DeepEqual(want.When, got.When) {
		t.Fatalf("%s: When differs\nwant %v\ngot  %v", ctx, want.When, got.When)
	}
}

type namedPriority struct {
	name string
	p    Priority
}

// priorities returns the orders the equivalence tests elect under: the
// two the simulator runs, a non-injective rank with an ID tiebreak, and a
// priority that ties adjacent nodes on rank and tiebreak alike, which the
// election breaks by ID.
func priorities(g *graph.Graph) []namedPriority {
	return []namedPriority{
		{"lowestID", LowestIDPriority},
		{"highestDegree", HighestDegreePriority(g)},
		{"bucketed", func(v int) (int, int) { return v % 7, v }},
		// v and every neighbor sharing its smallest closed-neighborhood
		// ID compare equal.
		{"tied", func(v int) (int, int) {
			if nb := g.Neighbors(v); len(nb) > 0 {
				return min(v, int(nb[0])), 0
			}
			return v, 0
		}},
	}
}

// requireOracle elects g under every test priority with the package-level
// Elect and with ws, and requires both to match roundElect and to be
// valid clusterings.
func requireOracle(t *testing.T, ws *Workspace, g *graph.Graph, ctx string) {
	t.Helper()
	for _, pr := range priorities(g) {
		want := roundElect(g, pr.p)
		requireSameClustering(t, want, Elect(g, pr.p), ctx+" Elect "+pr.name)
		got := ws.Elect(g, pr.p)
		requireSameClustering(t, want, got, ctx+" Workspace.Elect "+pr.name)
		if err := got.Validate(g); err != nil {
			t.Fatalf("%s %s: %v", ctx, pr.name, err)
		}
	}
}

// A reused Workspace and the package-level Elect match the round-by-round
// election under every test priority across densities and seeds, and the
// deprecated ParallelWorkspace forward matches Workspace.LowestID for
// every workers value.
func TestElectEquivalence(t *testing.T) {
	pw := NewParallelWorkspace()
	ws := NewWorkspace()
	for _, tc := range []struct {
		n    int
		deg  float64
		seed uint64
	}{
		{1, 1, 7}, {2, 1, 7}, {40, 4, 1}, {200, 8, 2}, {500, 18, 3}, {1000, 30, 4},
	} {
		nw, err := topology.Generate(topology.Config{
			N: tc.n, Bounds: geom.Square(100), AvgDegree: tc.deg,
		}, rng.New(tc.seed))
		if err != nil {
			t.Fatal(err)
		}
		requireOracle(t, ws, nw.G, "n="+itoa(tc.n))
		want := roundElect(nw.G, LowestIDPriority)
		for _, workers := range []int{-1, 0, 1, 2, 3, 4, 8, 16} {
			requireSameClustering(t, want, pw.LowestID(nw.G, workers), "ParallelWorkspace")
		}
	}
}

// Property: on random unit-disk graphs both elections agree with the
// round-by-round reference under every test priority.
func TestQuickElectAgrees(t *testing.T) {
	ws := NewWorkspace()
	f := func(seed uint64) bool {
		nw, err := topology.Generate(topology.Config{
			N: 60, Bounds: geom.Square(100), AvgDegree: 9,
		}, rng.New(seed))
		if err != nil {
			return false
		}
		requireOracle(t, ws, nw.G, "quick")
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Fuzz: both elections and the deprecated forward against the
// round-by-round reference across (n, density, seed, workers).
func FuzzElectAgree(f *testing.F) {
	f.Add(uint(50), uint(8), uint64(1), uint(4))
	f.Add(uint(200), uint(16), uint64(9), uint(16))
	f.Add(uint(3), uint(1), uint64(3), uint(2))
	pw := NewParallelWorkspace()
	ws := NewWorkspace()
	f.Fuzz(func(t *testing.T, n, deg uint, seed uint64, workers uint) {
		n = 1 + n%300
		deg = deg % 24
		workers = 1 + workers%16
		nw, err := topology.Generate(topology.Config{
			N: int(n), Bounds: geom.Square(100), AvgDegree: float64(deg),
		}, rng.New(seed))
		if err != nil {
			t.Skip()
		}
		requireOracle(t, ws, nw.G, "fuzz")
		want := roundElect(nw.G, LowestIDPriority)
		requireSameClustering(t, want, pw.LowestID(nw.G, int(workers)), "ParallelWorkspace")
	})
}

// requireElection checks a hand-built graph's lowest-ID election against
// hand-computed heads and rounds, and against the reference.
func requireElection(t *testing.T, g *graph.Graph, head, when []int, rounds int) {
	t.Helper()
	c := LowestID(g)
	if !reflect.DeepEqual(c.Head, head) || !reflect.DeepEqual(c.When, when) || c.Rounds != rounds {
		t.Fatalf("Head %v When %v Rounds %d, want %v %v %d", c.Head, c.When, c.Rounds, head, when, rounds)
	}
	requireSameClustering(t, roundElect(g, LowestIDPriority), c, "reference")
}

// Node 4's better neighbors are 2 and 3. Head 3 declares in round 1;
// head 2 only in round 2, after its better neighbor 1 joined 0. So 4
// joins the larger-ID head 3, whose declaration it heard first.
func TestElectMemberJoinsEarlierLargerHead(t *testing.T) {
	g := graph.FromEdges(5, [][2]int{{0, 1}, {1, 2}, {3, 4}, {2, 4}})
	requireElection(t, g, []int{0, 0, 2, 3, 3}, []int{1, 1, 2, 1, 1}, 2)
}

// Node 4's better neighbors 1 and 3 are both members, 1 decided in round
// 1 and 3 in round 2, so 4 declares in round 3: its round is set by the
// later of the two.
func TestElectHeadWaitsForLateMember(t *testing.T) {
	g := graph.FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {1, 4}, {3, 4}})
	requireElection(t, g, []int{0, 0, 2, 2, 4}, []int{1, 1, 2, 2, 3}, 3)
}

func benchmarkElect(b *testing.B, n int) {
	nw, err := topology.Generate(topology.Config{
		N: n, Bounds: geom.Square(100), AvgDegree: 18, RequireConnected: true,
	}, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	ws := NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ws.LowestID(nw.G)
	}
}

// BenchmarkElect times the lowest-ID election on a reused workspace per
// network size.
func BenchmarkElect(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		if n > 10000 && testing.Short() {
			continue
		}
		b.Run("n="+itoa(n), func(b *testing.B) { benchmarkElect(b, n) })
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
