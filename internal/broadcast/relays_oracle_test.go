package broadcast

import (
	"math"
	"slices"
	"sort"
	"testing"

	"clustercast/internal/geom"
	"clustercast/internal/graph"
	"clustercast/internal/rng"
	"clustercast/internal/topology"
)

// The map form of the related-work relays: the 1-hop and exact-2-hop
// neighbourhoods of every node as Go maps, the greedy cover over them,
// the MPR selection, the DP/PDP forward list and SBA's coverage test.
// The relays ran on it until the cover kernel replaced it; it stays as
// the reference the kernel is held to.

// neighborhood caches the open 1-hop and exact-2-hop neighbourhoods.
type neighborhood struct {
	g  *graph.Graph
	n1 []map[int]bool // open 1-hop neighborhoods
	n2 []map[int]bool // nodes at distance exactly 2
}

func newNeighborhood(g *graph.Graph) *neighborhood {
	n := g.N()
	nb := &neighborhood{g: g, n1: make([]map[int]bool, n), n2: make([]map[int]bool, n)}
	for v := 0; v < n; v++ {
		m := make(map[int]bool, g.Degree(v))
		for _, u := range g.Neighbors(v) {
			m[int(u)] = true
		}
		nb.n1[v] = m
	}
	for v := 0; v < n; v++ {
		m := make(map[int]bool)
		for _, u32 := range g.Neighbors(v) {
			u := int(u32)
			for _, w32 := range g.Neighbors(u) {
				w := int(w32)
				if w != v && !nb.n1[v][w] {
					m[w] = true
				}
			}
		}
		nb.n2[v] = m
	}
	return nb
}

// greedyCover selects, from the sorted candidate list, the candidate
// covering the most targets (ties to the lowest ID) until the targets are
// covered or no candidate covers any. The input targets map is consumed.
func greedyCover(targets map[int]bool, candidates []int, coverage func(c int) map[int]bool) []int {
	var out []int
	for len(targets) > 0 {
		best, bestGain := -1, 0
		for _, c := range candidates {
			gain := 0
			for w := range coverage(c) {
				if targets[w] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = c, gain
			}
		}
		if best == -1 {
			break // leftover targets are uncoverable
		}
		out = append(out, best)
		for w := range coverage(best) {
			delete(targets, w)
		}
	}
	sort.Ints(out)
	return out
}

// selectMPR computes the multipoint relay set of v.
func selectMPR(nb *neighborhood, v int) map[int]bool {
	targets := make(map[int]bool, len(nb.n2[v]))
	for w := range nb.n2[v] {
		targets[w] = true
	}
	selected := make(map[int]bool)
	neighbors := ints(nb.g.Neighbors(v))

	// Stage 1: neighbors that are the only path to some 2-hop node.
	coverCount := make(map[int]int, len(targets))
	soleCover := make(map[int]int, len(targets))
	for _, u := range neighbors {
		for w := range nb.n1[u] {
			if targets[w] {
				coverCount[w]++
				soleCover[w] = u
			}
		}
	}
	for w, c := range coverCount {
		if c == 1 {
			selected[soleCover[w]] = true
		}
	}
	for u := range selected {
		for w := range nb.n1[u] {
			delete(targets, w)
		}
	}

	// Stage 2: greedy max cover for the rest.
	rest := greedyCover(targets, neighbors, func(c int) map[int]bool { return nb.n1[c] })
	for _, u := range rest {
		selected[u] = true
	}
	return selected
}

// forwardList computes v's DP (PDP when partial) forward list given that v
// heard the packet from upstream u (u < 0 for the source).
func forwardList(nb *neighborhood, v, u int, partial bool) map[int]bool {
	// reached reports whether w already heard u's transmission.
	reached := func(w int) bool { return u >= 0 && (w == u || nb.n1[u][w]) }
	targets := make(map[int]bool)
	for w := range nb.n2[v] {
		if !reached(w) {
			targets[w] = true
		}
	}
	if partial && u >= 0 {
		// N(N(u) ∩ N(v)): neighbors of the common neighbors.
		for c := range nb.n1[u] {
			if !nb.n1[v][c] {
				continue
			}
			for w := range nb.n1[c] {
				delete(targets, w)
			}
		}
	}
	var candidates []int
	for _, c32 := range nb.g.Neighbors(v) {
		c := int(c32)
		if !reached(c) {
			candidates = append(candidates, c)
		}
	}
	chosen := greedyCover(targets, candidates, func(c int) map[int]bool { return nb.n1[c] })
	out := make(map[int]bool, len(chosen))
	for _, c := range chosen {
		out[c] = true
	}
	return out
}

// sbaDecide reports whether some neighbor of v is covered by none of the
// heard senders' closed neighbourhoods.
func sbaDecide(nb *neighborhood, v int, heard []int) bool {
	covered := make(map[int]bool, 8)
	for _, x := range heard {
		covered[x] = true
		for w := range nb.n1[x] {
			covered[w] = true
		}
	}
	for _, w32 := range nb.g.Neighbors(v) {
		w := int(w32)
		if !covered[w] {
			return true
		}
	}
	return false
}

// members returns a map set as the ascending int32 list a designation
// carries.
func members(set map[int]bool) []int32 {
	out := make([]int32, 0, len(set))
	for v := range set {
		out = append(out, int32(v))
	}
	slices.Sort(out)
	return out
}

// requireRelaysAgree holds the kernel to the map form on g: every node's
// MPR set; the DP and PDP forward lists for every (v, u) with u ∈ N(v)
// or u = −1; and SBA's decision for random heard subsets of N(v).
func requireRelaysAgree(t *testing.T, g *graph.Graph, r *rng.Stream) {
	t.Helper()
	nb := newNeighborhood(g)
	mpr := NewMPR(g)
	dp, pdp := NewDP(g), NewPDP(g)
	sba := NewSBA(g, 0, 0)
	for v := 0; v < g.N(); v++ {
		if got, want := mpr.pkts[v].forward, members(selectMPR(nb, v)); !slices.Equal(got, want) {
			t.Fatalf("MPR(%d) = %v, map form %v", v, got, want)
		}
		for _, u := range append([]int{-1}, ints(g.Neighbors(v))...) {
			if got, want := dp.packetFor(v, u).forward, members(forwardList(nb, v, u, false)); !slices.Equal(got, want) {
				t.Fatalf("DP forward list of %d from %d = %v, map form %v", v, u, got, want)
			}
			if got, want := pdp.packetFor(v, u).forward, members(forwardList(nb, v, u, true)); !slices.Equal(got, want) {
				t.Fatalf("PDP forward list of %d from %d = %v, map form %v", v, u, got, want)
			}
		}
		row := g.Neighbors(v)
		for k := 0; k < 8; k++ {
			var heard []int
			for _, i := range r.Perm(len(row)) {
				if r.Bool(0.5) {
					heard = append(heard, int(row[i]))
				}
			}
			if got, want := sba.Decide(v, heard), sbaDecide(nb, v, heard); got != want {
				t.Fatalf("SBA.Decide(%d, %v) = %v, map form %v", v, heard, got, want)
			}
		}
	}
}

// clique returns the edges of the complete graph on ids.
func clique(ids ...int) [][2]int {
	var e [][2]int
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			e = append(e, [2]int{ids[i], ids[j]})
		}
	}
	return e
}

// TestRelaysMatchMapOracle runs the comparison on random unit-disk graphs
// at d = 4, 10 and 18 (connected or not) and on hand-made shapes.
func TestRelaysMatchMapOracle(t *testing.T) {
	r := rng.New(11)
	for _, d := range []float64{4, 10, 18} {
		for seed := uint64(1); seed <= 4; seed++ {
			nw, err := topology.Generate(topology.Config{N: 80, Bounds: geom.Square(100), AvgDegree: d}, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			requireRelaysAgree(t, nw.G, r)
		}
	}
	bridged := append(clique(0, 1, 2, 3), clique(4, 5, 6, 7)...)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"path", pathGraph(7)},
		{"star", graph.FromEdges(6, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}})},
		{"clique", graph.FromEdges(6, clique(0, 1, 2, 3, 4, 5))},
		{"bridged-cliques", graph.FromEdges(8, append(bridged, [2]int{3, 4}))},
		{"isolated-node", graph.FromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {1, 4}})},
	} {
		t.Run(tc.name, func(t *testing.T) { requireRelaysAgree(t, tc.g, r) })
	}
}

// TestCoverStampWrap: across the uint32 wraparound of the stamp values,
// stamps left by the first queries cannot pass for fresh ones.
func TestCoverStampWrap(t *testing.T) {
	nw, err := topology.Generate(topology.Config{N: 60, Bounds: geom.Square(100), AvgDegree: 10}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	g := nw.G
	nb := newNeighborhood(g)
	dp := NewDP(g)
	for v := 0; v < g.N(); v++ {
		dp.cov.prepare(v, -1, false)
	}
	dp.cov.tg = math.MaxUint32 - 5
	for v := 0; v < g.N(); v++ {
		dp.cov.prepare(v, -1, false)
		if got, want := dp.cov.greedy(nil), members(forwardList(nb, v, -1, false)); !slices.Equal(got, want) {
			t.Fatalf("DP forward list of source %d = %v after %d queries near the wrap, map form %v", v, got, v, want)
		}
	}
}

// FuzzRelaysAgree holds MPR, DP, PDP and SBA to the map form on random
// unit-disk graphs across (n, density, seed).
func FuzzRelaysAgree(f *testing.F) {
	f.Add(uint(40), uint(8), uint64(1))
	f.Add(uint(90), uint(18), uint64(7))
	f.Add(uint(5), uint(2), uint64(3))
	f.Fuzz(func(t *testing.T, n, deg uint, seed uint64) {
		n = 1 + n%120
		deg = deg % 24
		nw, err := topology.Generate(topology.Config{
			N: int(n), Bounds: geom.Square(100), AvgDegree: float64(deg),
		}, rng.New(seed))
		if err != nil {
			t.Skip()
		}
		requireRelaysAgree(t, nw.G, rng.New(seed^0x5eed))
	})
}

// ints widens a CSR row to the map form's node IDs.
func ints(row []int32) []int {
	out := make([]int, len(row))
	for i, v := range row {
		out[i] = int(v)
	}
	return out
}
