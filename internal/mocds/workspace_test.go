package mocds

import (
	"testing"

	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/geom"
	"clustercast/internal/rng"
	"clustercast/internal/topology"
)

// TestSizeFromMatchesBuild proves the workspace size path selects exactly
// the node set the map fold materializes, across random networks and
// across reuse of a single workspace.
func TestSizeFromMatchesBuild(t *testing.T) {
	ws := NewWorkspace()
	for rep := 0; rep < 20; rep++ {
		nw, err := topology.Generate(topology.Config{
			N: 120, Bounds: geom.Square(100), AvgDegree: 8,
			RequireConnected: true,
		}, rng.New(uint64(300+rep)))
		if err != nil {
			t.Fatalf("rep %d: generate: %v", rep, err)
		}
		cl := cluster.LowestID(nw.G)
		b := coverage.NewBuilder(nw.G, cl, coverage.Hop3)
		want := buildMaps(b, cl)
		got := ws.SizeFrom(b, cl)
		if got != len(want.Nodes) {
			t.Fatalf("rep %d: SizeFrom = %d, map fold size = %d", rep, got, len(want.Nodes))
		}
		for v := 0; v < nw.N(); v++ {
			if ws.nodes.Has(v) != want.Nodes[v] {
				t.Fatalf("rep %d: node %d membership: workspace %v, map fold %v",
					rep, v, ws.nodes.Has(v), want.Nodes[v])
			}
		}
	}
}
