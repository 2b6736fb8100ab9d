package backbone

import (
	"testing"

	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/geom"
	"clustercast/internal/rng"
	"clustercast/internal/topology"
)

// TestStaticNodesMatchesBuild proves the workspace selection computes the
// same backbone membership as BuildStaticOpt, for both coverage modes and
// both option settings, across reuse of a single workspace.
func TestStaticNodesMatchesBuild(t *testing.T) {
	ws := NewWorkspace()
	for rep := 0; rep < 12; rep++ {
		nw, err := topology.Generate(topology.Config{
			N: 120, Bounds: geom.Square(100), AvgDegree: 8,
			RequireConnected: true,
		}, rng.New(uint64(500+rep)))
		if err != nil {
			t.Fatalf("rep %d: generate: %v", rep, err)
		}
		cl := cluster.LowestID(nw.G)
		for _, mode := range []coverage.Mode{coverage.Hop25, coverage.Hop3} {
			b := coverage.NewBuilder(nw.G, cl, mode)
			for _, opts := range []Options{{}, {NoIndirectTieBreak: true}} {
				want := BuildStaticOpt(b, cl, opts)
				nodes := ws.StaticNodes(b, cl, opts)
				if nodes.Count() != want.Size() {
					t.Fatalf("rep %d mode %v opts %+v: size %d, want %d",
						rep, mode, opts, nodes.Count(), want.Size())
				}
				for v := 0; v < nw.N(); v++ {
					if nodes.Has(v) != want.Nodes.Has(v) {
						t.Fatalf("rep %d mode %v opts %+v: node %d membership: workspace %v, build %v",
							rep, mode, opts, v, nodes.Has(v), want.Nodes.Has(v))
					}
				}
			}
		}
	}
}
