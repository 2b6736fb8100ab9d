package dynamicb

import (
	"slices"
	"testing"

	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/geom"
	"clustercast/internal/rng"
	"clustercast/internal/topology"
)

// TestColdInitAllocsFlatInHeads: a cold build carves every head's
// coverage from arenas sized once, so the objects it allocates do not
// grow with the head count. Before the arenas a cold NewWith made about
// 25 objects per head on these networks (1,217 at 52 heads, 125,881 at
// 4,928).
func TestColdInitAllocsFlatInHeads(t *testing.T) {
	sizes := []int{500, 5000, 50000}
	if testing.Short() {
		sizes = sizes[:2]
	}
	var first struct{ ws, proto float64 }
	for i, n := range sizes {
		nw, err := topology.Generate(topology.Config{
			N: n, Bounds: geom.Square(100), AvgDegree: 18,
		}, rng.New(uint64(40+i)))
		if err != nil {
			t.Fatal(err)
		}
		cl := cluster.LowestID(nw.G)
		ws := testing.AllocsPerRun(2, func() { NewWorkspace().NewWith(nw.G, cl, coverage.Hop25) })
		proto := testing.AllocsPerRun(2, func() { New(nw.G, cl, coverage.Hop25) })
		t.Logf("n=%d: %d heads, cold NewWith %.0f objects, New %.0f", n, len(cl.Heads), ws, proto)
		if i == 0 {
			first.ws, first.proto = ws, proto
			continue
		}
		// The assembly's per-neighbor scratch grows to the largest head
		// degree, and the digest's CH_HOP2 list doubles when a network
		// outgrows its first size: a few objects of slack absorb both.
		const slack = 4
		if ws > first.ws+slack || proto > first.proto+slack {
			t.Fatalf("n=%d (%d heads): cold NewWith %.0f and New %.0f objects, against %.0f and %.0f at n=%d",
				n, len(cl.Heads), ws, proto, first.ws, first.proto, sizes[0])
		}
	}
}

// TestStoreMatchesBuilder: every head's coverage as the store holds it —
// C², C³, the connectors in order and their runs — equals what the
// builder assembles for that head on its own, at every strip count and
// in both modes, on one workspace reused across networks that grow and
// shrink.
func TestStoreMatchesBuilder(t *testing.T) {
	ws := NewWorkspace()
	for rep, n := range []int{300, 40, 700, 120, 500} {
		nw, err := topology.Generate(topology.Config{
			N: n, Bounds: geom.Square(100), AvgDegree: 12,
		}, rng.New(uint64(60+rep)))
		if err != nil {
			t.Fatal(err)
		}
		cl := cluster.LowestID(nw.G)
		for _, mode := range []coverage.Mode{coverage.Hop25, coverage.Hop3} {
			b := coverage.NewBuilder(nw.G, cl, mode)
			for _, workers := range []int{1, 2, 3, 8} {
				ws.BuildWorkers = workers
				p := ws.NewWith(nw.G, cl, mode)
				for i, h := range cl.Heads {
					got, want := p.coverage(i), b.Of(h)
					if got.Head != want.Head || got.Mode != want.Mode || got.N != want.N ||
						!slices.Equal(got.C2, want.C2) || !slices.Equal(got.C3, want.C3) ||
						!slices.Equal(got.Conns, want.Conns) || !slices.Equal(got.Direct, want.Direct) ||
						!slices.Equal(got.Indirect, want.Indirect) {
						t.Fatalf("n=%d %v workers %d: head %d: store holds\n  %+v\nbuilder assembles\n  %+v",
							n, mode, workers, h, got, *want)
					}
				}
			}
		}
	}
}
