package backbone

import (
	"fmt"
	"reflect"
	"testing"

	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/geom"
	"clustercast/internal/graph"
	"clustercast/internal/rng"
	"clustercast/internal/topology"
)

// upAll is the all-alive baseline predicate.
func upAll(int) bool { return true }

// notIn builds a liveness predicate from a crash set.
func notIn(dead map[int]bool) func(int) bool {
	return func(v int) bool { return !dead[v] }
}

// checkRepairEquivalence repairs (cl, base) for the liveness transition
// wasUp→isUp and verifies the result is identical to a from-scratch build
// on the surviving graph: same clustering (Head, When, Heads, Members,
// Rounds) and the same per-head gateway selections. It returns the repaired
// pair so callers can chain further transitions.
func checkRepairEquivalence(t *testing.T, g *graph.Graph, cl *cluster.Clustering, base *Static, wasUp, isUp func(int) bool, mode coverage.Mode) (*cluster.Clustering, *Static) {
	t.Helper()
	repaired, static, st, err := Repair(g, cl, base, wasUp, isUp, Options{}, nil)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	gLive := liveGraph(g, isUp)
	fresh := cluster.LowestID(gLive)
	if !reflect.DeepEqual(repaired.Head, fresh.Head) {
		t.Fatalf("repaired heads diverge from fresh election:\n got %v\nwant %v", repaired.Head, fresh.Head)
	}
	if !reflect.DeepEqual(repaired.When, fresh.When) {
		t.Fatalf("repaired When diverges:\n got %v\nwant %v", repaired.When, fresh.When)
	}
	if !reflect.DeepEqual(repaired.Heads, fresh.Heads) {
		t.Fatalf("repaired head list diverges:\n got %v\nwant %v", repaired.Heads, fresh.Heads)
	}
	if repaired.Rounds != fresh.Rounds {
		t.Fatalf("repaired Rounds = %d, fresh = %d", repaired.Rounds, fresh.Rounds)
	}
	for h, m := range fresh.Members {
		if !reflect.DeepEqual(repaired.Members[h], m) {
			t.Fatalf("members of head %d diverge: got %v want %v", h, repaired.Members[h], m)
		}
	}
	if len(repaired.Members) != len(fresh.Members) {
		t.Fatalf("member map sizes diverge: got %d want %d", len(repaired.Members), len(fresh.Members))
	}

	// The fresh static includes dead nodes as isolated singleton heads with
	// empty selections; the repaired static holds live nodes only.
	freshStatic := BuildStatic(gLive, fresh, mode)
	liveHeads := make([]int, 0, len(freshStatic.Heads))
	for _, h := range freshStatic.Heads {
		if isUp(h) {
			liveHeads = append(liveHeads, h)
		}
	}
	if !reflect.DeepEqual(static.Heads, liveHeads) {
		t.Fatalf("repaired static heads = %v, fresh live heads = %v", static.Heads, liveHeads)
	}
	freshCov := coverage.NewBuilder(gLive, fresh, mode)
	for _, h := range liveHeads {
		got, want := static.PerHead[h], freshStatic.PerHead[h]
		if !reflect.DeepEqual(got.Gateways, want.Gateways) {
			t.Fatalf("head %d gateways diverge: got %v want %v", h, got.Gateways, want.Gateways)
		}
		if missed := unconnected(gLive, freshCov.Of(h), got.Gateways); len(missed) > 0 {
			t.Fatalf("head %d leaves targets %v of the surviving graph unconnected", h, missed)
		}
	}
	for v := range freshStatic.Nodes {
		if isUp(v) && !static.Nodes[v] {
			t.Fatalf("fresh backbone node %d missing from repaired backbone", v)
		}
	}
	for v := range static.Nodes {
		if !freshStatic.Nodes[v] {
			t.Fatalf("repaired backbone node %d absent from fresh backbone", v)
		}
	}

	// CDS sanity on the surviving graph (Theorem 1, restricted to live
	// nodes): the repaired membership plus the dead singletons must verify
	// exactly like the fresh build does.
	withDead := make(map[int]bool, len(static.Nodes))
	for v := range static.Nodes {
		withDead[v] = true
	}
	for v := 0; v < g.N(); v++ {
		if !isUp(v) {
			withDead[v] = true
		}
	}
	if gLive.IsDominatingSet(freshStatic.Nodes) != gLive.IsDominatingSet(withDead) {
		t.Fatalf("domination verdicts diverge between fresh and repaired backbones")
	}

	if st.Reselected > len(static.Heads) {
		t.Fatalf("reselected %d heads out of %d", st.Reselected, len(static.Heads))
	}
	return repaired, static
}

func TestRepairNoChangeIsIdentity(t *testing.T) {
	nw, err := topology.Generate(topology.Config{
		N: 60, Bounds: geom.Square(100), AvgDegree: 8, RequireConnected: true,
	}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.LowestID(nw.G)
	base := BuildStatic(nw.G, cl, coverage.Hop25)
	repaired, static, st, err := Repair(nw.G, cl, base, upAll, upAll, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Changed != 0 || st.Tracked != 0 || st.Reselected != 0 {
		t.Fatalf("no-op repair did work: %+v", st)
	}
	if !reflect.DeepEqual(repaired.Head, cl.Head) {
		t.Fatal("no-op repair changed the clustering")
	}
	if !reflect.DeepEqual(static.Heads, base.Heads) {
		t.Fatal("no-op repair changed the head list")
	}
}

func TestRepairRejectsClusteringWithoutWhen(t *testing.T) {
	g := graph.FromEdges(3, [][2]int{{0, 1}, {1, 2}})
	cl := cluster.LowestID(g)
	base := BuildStatic(g, cl, coverage.Hop25)
	stripped := &cluster.Clustering{Head: cl.Head, Heads: cl.Heads, Members: cl.Members, Rounds: cl.Rounds}
	if _, _, _, err := Repair(g, stripped, base, upAll, upAll, Options{}, nil); err == nil {
		t.Fatal("expected an error for a clustering without When")
	}
}

// TestRepairEquivalenceFuzz drives fuzzed crash sets (including crashed
// clusterheads and gateways) through Repair and demands exact agreement
// with a fresh build on each surviving graph.
func TestRepairEquivalenceFuzz(t *testing.T) {
	for _, mode := range []coverage.Mode{coverage.Hop25, coverage.Hop3} {
		for seed := uint64(1); seed <= 12; seed++ {
			seed := seed
			t.Run(fmt.Sprintf("%v/seed%d", mode, seed), func(t *testing.T) {
				r := rng.New(seed * 977)
				n := 30 + r.Intn(50)
				nw, err := topology.Generate(topology.Config{
					N: n, Bounds: geom.Square(100),
					AvgDegree: 6 + 4*r.Float64(), RequireConnected: true,
				}, r)
				if err != nil {
					t.Skipf("no connected sample: %v", err)
				}
				cl := cluster.LowestID(nw.G)
				base := BuildStatic(nw.G, cl, mode)

				dead := map[int]bool{}
				k := 1 + r.Intn(n/5)
				for len(dead) < k {
					dead[r.Intn(n)] = true
				}
				// Bias at least one clusterhead into the crash set: dead
				// heads are the interesting repair case.
				dead[cl.Heads[r.Intn(len(cl.Heads))]] = true
				checkRepairEquivalence(t, nw.G, cl, base, upAll, notIn(dead), mode)
			})
		}
	}
}

// TestRepairChained applies a crash wave, repairs, then a second wave with
// partial recovery, repairing on top of the first repair's output — the
// repaired clustering must keep working as a baseline.
func TestRepairChained(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rng.New(seed * 3559)
			nw, err := topology.Generate(topology.Config{
				N: 70, Bounds: geom.Square(100), AvgDegree: 8, RequireConnected: true,
			}, r)
			if err != nil {
				t.Skipf("no connected sample: %v", err)
			}
			g := nw.G
			cl := cluster.LowestID(g)
			base := BuildStatic(g, cl, coverage.Hop25)

			dead1 := map[int]bool{}
			for len(dead1) < 8 {
				dead1[r.Intn(70)] = true
			}
			cl1, base1 := checkRepairEquivalence(t, g, cl, base, upAll, notIn(dead1), coverage.Hop25)

			// Second wave: recover half of the first wave, crash new nodes.
			dead2 := map[int]bool{}
			i := 0
			for v := range dead1 {
				if i%2 == 0 {
					dead2[v] = true
				}
				i++
			}
			for len(dead2) < 10 {
				dead2[r.Intn(70)] = true
			}
			checkRepairEquivalence(t, g, cl1, base1, notIn(dead1), notIn(dead2), coverage.Hop25)
		})
	}
}

// TestRepairAllHeadsCrash kills every baseline clusterhead at once — the
// wavefront has to re-elect from scratch among the survivors.
func TestRepairAllHeadsCrash(t *testing.T) {
	nw, err := topology.Generate(topology.Config{
		N: 50, Bounds: geom.Square(100), AvgDegree: 8, RequireConnected: true,
	}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.LowestID(nw.G)
	dead := map[int]bool{}
	for _, h := range cl.Heads {
		dead[h] = true
	}
	base := BuildStatic(nw.G, cl, coverage.Hop25)
	checkRepairEquivalence(t, nw.G, cl, base, upAll, notIn(dead), coverage.Hop25)
}
