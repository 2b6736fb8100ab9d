package mocds

import (
	"testing"

	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/geom"
	"clustercast/internal/obs"
	"clustercast/internal/rng"
	"clustercast/internal/topology"
)

// hop3Builders samples reps connected networks and digests each for the
// 3-hop coverage set.
func hop3Builders(t *testing.T, reps int, seed uint64) ([]*coverage.Builder, []*cluster.Clustering) {
	t.Helper()
	var bs []*coverage.Builder
	var cls []*cluster.Clustering
	for rep := 0; rep < reps; rep++ {
		nw, err := topology.Generate(topology.Config{
			N: 150, Bounds: geom.Square(100), AvgDegree: 9,
			RequireConnected: true,
		}, rng.New(seed+uint64(rep)))
		if err != nil {
			t.Fatalf("rep %d: generate: %v", rep, err)
		}
		cl := cluster.LowestID(nw.G)
		bs = append(bs, coverage.NewBuilder(nw.G, cl, coverage.Hop3))
		cls = append(cls, cl)
	}
	return bs, cls
}

// TestNodesFromParallelBitIdentical proves the workspace fold returns the
// membership the map fold materializes for every worker count, across
// reuse of a single workspace. Run with -race to exercise the strip
// isolation.
func TestNodesFromParallelBitIdentical(t *testing.T) {
	ws := NewWorkspace()
	bs, cls := hop3Builders(t, 8, 1300)
	for rep, b := range bs {
		cl := cls[rep]
		want := buildMaps(b, cl).Nodes
		for _, workers := range []int{0, 1, 2, 3, 7, 64} {
			ws.BuildWorkers = workers
			got := ws.NodesFrom(b, cl)
			if got.Count() != len(want) {
				t.Fatalf("rep %d workers %d: size %d, want %d", rep, workers, got.Count(), len(want))
			}
			for v := 0; v < b.N(); v++ {
				if got.Has(v) != want[v] {
					t.Fatalf("rep %d workers %d: node %d membership: workspace %v, map fold %v",
						rep, workers, v, got.Has(v), want[v])
				}
			}
		}
	}
}

// TestNodesFromBuildWorkersCounters pins that every NodesFrom call folds
// mocds.builds and mocds.nodes_selected once, whatever its worker count:
// the totals at 2 and 3 workers equal those at 1.
func TestNodesFromBuildWorkersCounters(t *testing.T) {
	bs, cls := hop3Builders(t, 4, 1700)
	obs.Enable()
	defer obs.Disable()
	totals := func(workers int) (builds, nodes int64) {
		ws := NewWorkspace()
		ws.BuildWorkers = workers
		b0, n0 := mBuilds.Value(), mNodes.Value()
		for rep, b := range bs {
			ws.NodesFrom(b, cls[rep])
		}
		return mBuilds.Value() - b0, mNodes.Value() - n0
	}
	wantBuilds, wantNodes := totals(1)
	if wantBuilds != int64(len(bs)) || wantNodes == 0 {
		t.Fatalf("1 worker: mocds.builds %d, nodes_selected %d; want %d builds and some nodes",
			wantBuilds, wantNodes, len(bs))
	}
	for _, workers := range []int{2, 3} {
		if builds, nodes := totals(workers); builds != wantBuilds || nodes != wantNodes {
			t.Fatalf("%d workers: mocds.builds %d, nodes_selected %d; want %d and %d as at 1 worker",
				workers, builds, nodes, wantBuilds, wantNodes)
		}
	}
}
