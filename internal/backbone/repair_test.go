package backbone

import (
	"fmt"
	"slices"
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
// wasUp→isUp, holds the clustering and the wavefront to the round-by-round
// replay (Head, Heads, When, Rounds and Tracked), and verifies the backbone
// is identical to a from-scratch build on the surviving graph: the same
// per-head gateway selections. It returns the repaired pair, so callers can
// chain further transitions, and the pass's stats.
func checkRepairEquivalence(t *testing.T, g *graph.Graph, cl *cluster.Clustering, base *Static, wasUp, isUp func(int) bool, mode coverage.Mode) (*cluster.Clustering, *Static, *RepairStats) {
	t.Helper()
	repaired, static, st, err := Repair(g, cl, base, wasUp, isUp, Options{}, nil)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	requireReplayAgrees(t, g, cl, wasUp, isUp, repaired, st)
	gLive := liveGraph(g, isUp)
	fresh := cluster.LowestID(gLive)

	// The fresh static includes dead nodes as isolated singleton heads with
	// empty selections; the repaired static holds live nodes only.
	freshStatic := BuildStatic(gLive, fresh, mode)
	liveHeads := make([]int, 0, len(freshStatic.Heads))
	for _, h := range freshStatic.Heads {
		if isUp(h) {
			liveHeads = append(liveHeads, h)
		}
	}
	if !slices.Equal(static.Heads, liveHeads) {
		t.Fatalf("repaired static heads = %v, fresh live heads = %v", static.Heads, liveHeads)
	}
	freshCov := coverage.NewBuilder(gLive, fresh, mode)
	i := 0 // static.PerHead follows liveHeads, freshStatic.PerHead every head
	for j, h := range freshStatic.Heads {
		if !isUp(h) {
			continue
		}
		got, want := static.PerHead[i], freshStatic.PerHead[j]
		i++
		if got.Head != h {
			t.Fatalf("repaired selection %d belongs to head %d, want %d", i-1, got.Head, h)
		}
		if !slices.Equal(got.Gateways, want.Gateways) {
			t.Fatalf("head %d gateways diverge: got %v want %v", h, got.Gateways, want.Gateways)
		}
		if missed := unconnected(gLive, freshCov.Of(h), got.Gateways); len(missed) > 0 {
			t.Fatalf("head %d leaves targets %v of the surviving graph unconnected", h, missed)
		}
	}
	for v := 0; v < g.N(); v++ {
		if isUp(v) && freshStatic.Nodes.Has(v) && !static.Nodes.Has(v) {
			t.Fatalf("fresh backbone node %d missing from repaired backbone", v)
		}
		if static.Nodes.Has(v) && !freshStatic.Nodes.Has(v) {
			t.Fatalf("repaired backbone node %d absent from fresh backbone", v)
		}
	}

	// CDS sanity on the surviving graph (Theorem 1, restricted to live
	// nodes): the repaired membership plus the dead singletons must verify
	// exactly like the fresh build does.
	withDead := graph.NewBitset(g.N())
	withDead.CopyFrom(static.Nodes)
	for v := 0; v < g.N(); v++ {
		if !isUp(v) {
			withDead.Add(v)
		}
	}
	if gLive.IsDominatingSet(freshStatic.Nodes) != gLive.IsDominatingSet(withDead) {
		t.Fatalf("domination verdicts diverge between fresh and repaired backbones")
	}

	if st.Reselected > len(static.Heads) {
		t.Fatalf("reselected %d heads out of %d", st.Reselected, len(static.Heads))
	}
	return repaired, static, st
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
	if !slices.Equal(repaired.Head, cl.Head) {
		t.Fatal("no-op repair changed the clustering")
	}
	if !slices.Equal(static.Heads, base.Heads) {
		t.Fatal("no-op repair changed the head list")
	}
}

func TestRepairRejectsClusteringWithoutWhen(t *testing.T) {
	g := graph.FromEdges(3, [][2]int{{0, 1}, {1, 2}})
	cl := cluster.LowestID(g)
	base := BuildStatic(g, cl, coverage.Hop25)
	stripped := &cluster.Clustering{Head: cl.Head, Heads: cl.Heads, Rounds: cl.Rounds}
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
			cl1, base1, _ := checkRepairEquivalence(t, g, cl, base, upAll, notIn(dead1), coverage.Hop25)

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

// repairWaves chains Repair through crash/recovery waves on one graph,
// starting from the all-alive election, and holds every call to the replay
// and to a fresh build of the surviving graph. wave(i, up) returns wave
// i's liveness predicate given the current one. It returns the total
// wavefront, so sweeps can tell the waves reached somebody.
func repairWaves(t *testing.T, g *graph.Graph, mode coverage.Mode, waves int, wave func(i int, up func(int) bool) func(int) bool) int {
	t.Helper()
	cl := cluster.LowestID(g)
	base := BuildStatic(g, cl, mode)
	up, total := upAll, 0
	for i := 0; i < waves; i++ {
		next := wave(i, up)
		var st *RepairStats
		cl, base, st = checkRepairEquivalence(t, g, cl, base, up, next, mode)
		total += st.Tracked
		up = next
	}
	return total
}

// TestRepairWavesAgreeWithReplay sweeps 1,000 seeded unit-disk graphs of 2
// to 151 nodes at average degree 2 to 20, a third of them disconnected,
// through four chained waves each: in a wave every live node crashes with
// one probability and every dead node recovers with another. 3,761 of the
// 4,000 repairs have a non-empty wavefront.
func TestRepairWavesAgreeWithReplay(t *testing.T) {
	tracked := 0
	for seed := uint64(1); seed <= 1000; seed++ {
		r := rng.New(seed * 7919)
		n := 2 + r.Intn(150)
		nw, err := topology.Generate(topology.Config{
			N: n, Bounds: geom.Square(100), AvgDegree: float64(2 + r.Intn(19)),
		}, r)
		if err != nil {
			t.Fatal(err)
		}
		mode := []coverage.Mode{coverage.Hop25, coverage.Hop3}[seed%2]
		tracked += repairWaves(t, nw.G, mode, 4, func(_ int, up func(int) bool) func(int) bool {
			crash, recover := 0.3*r.Float64(), 0.6*r.Float64()
			alive := make([]bool, n)
			for v := range alive {
				if up(v) {
					alive[v] = r.Float64() >= crash
				} else {
					alive[v] = r.Float64() < recover
				}
			}
			return func(v int) bool { return alive[v] }
		})
	}
	if tracked == 0 {
		t.Fatal("no wave reached a node")
	}
}

// FuzzRepairAgree chains two Repair calls on a fuzzed unit-disk graph: the
// first crashes the nodes whose bit is set in crash, the second flips the
// nodes whose bit is set in toggle, so its dead ones recover and its live
// ones crash. Each call's clustering and wavefront must equal the replay's,
// and its backbone a fresh build's.
func FuzzRepairAgree(f *testing.F) {
	f.Add(uint8(60), uint8(8), uint64(1), []byte{0x21, 0x84, 0x10}, []byte{0x01, 0x80, 0x42})
	f.Add(uint8(150), uint8(18), uint64(7), []byte{0xff, 0x00, 0x3c, 0x81}, []byte{0x0f, 0xf0})
	f.Add(uint8(20), uint8(2), uint64(3), []byte{0x55}, []byte{0xaa, 0x55})
	bit := func(b []byte, v int) bool { return v/8 < len(b) && b[v/8]&(1<<(v%8)) != 0 }
	f.Fuzz(func(t *testing.T, n, deg uint8, seed uint64, crash, toggle []byte) {
		nw, err := topology.Generate(topology.Config{
			N: 1 + int(n)%150, Bounds: geom.Square(100), AvgDegree: float64(1 + deg%24),
		}, rng.New(seed))
		if err != nil {
			t.Skip()
		}
		mode := []coverage.Mode{coverage.Hop25, coverage.Hop3}[seed%2]
		repairWaves(t, nw.G, mode, 2, func(i int, up func(int) bool) func(int) bool {
			if i == 0 {
				return func(v int) bool { return !bit(crash, v) }
			}
			return func(v int) bool { return up(v) != bit(toggle, v) }
		})
	})
}
