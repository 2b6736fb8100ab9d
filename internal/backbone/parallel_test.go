package backbone

import (
	"testing"

	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/geom"
	"clustercast/internal/rng"
	"clustercast/internal/topology"
)

// TestStaticNodesParallelBitIdentical proves the workspace selection
// returns the backbone membership BuildStaticOpt materializes, for every
// worker count, coverage mode and option setting, across reuse of a single
// workspace. Run with -race to exercise the strip isolation: each strip
// assembles coverage through its own AsmScratch while sharing the
// read-only builder digests.
func TestStaticNodesParallelBitIdentical(t *testing.T) {
	ws := NewWorkspace()
	for rep := 0; rep < 8; rep++ {
		nw, err := topology.Generate(topology.Config{
			N: 150, Bounds: geom.Square(100), AvgDegree: 9,
			RequireConnected: true,
		}, rng.New(uint64(900+rep)))
		if err != nil {
			t.Fatalf("rep %d: generate: %v", rep, err)
		}
		cl := cluster.LowestID(nw.G)
		for _, mode := range []coverage.Mode{coverage.Hop25, coverage.Hop3} {
			b := coverage.NewBuilder(nw.G, cl, mode)
			for _, opts := range []Options{{}, {NoIndirectTieBreak: true}} {
				want := BuildStaticOpt(b, cl, opts).Nodes
				for _, workers := range []int{0, 1, 2, 3, 7, 64} {
					ws.BuildWorkers = workers
					got := ws.StaticNodes(b, cl, opts)
					if got.Count() != want.Count() {
						t.Fatalf("rep %d mode %v opts %+v workers %d: size %d, want %d",
							rep, mode, opts, workers, got.Count(), want.Count())
					}
					for v := 0; v < nw.N(); v++ {
						if got.Has(v) != want.Has(v) {
							t.Fatalf("rep %d mode %v opts %+v workers %d: node %d membership: workspace %v, build %v",
								rep, mode, opts, workers, v, got.Has(v), want.Has(v))
						}
					}
				}
			}
		}
	}
}
