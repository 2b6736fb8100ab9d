package experiment

import (
	"testing"

	"clustercast/internal/coverage"
	"clustercast/internal/graph"
	"clustercast/internal/stats"
)

// TestScratchConcurrentForEachPoint exercises graph.Scratch growth and the
// package-level scratch pool from the worker pool that real sweeps use.
// Run under -race (make test-race / make ci) it proves the pooled scratch
// hand-out and per-goroutine reuse are data-race free.
func TestScratchConcurrentForEachPoint(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(8)

	// Topologies of growing size: a scratch that migrates between them via
	// the pool must grow its visited array on demand.
	sizes := []int{10, 30, 60, 100}
	nets := make([]*graph.Graph, len(sizes))
	conn := make([]bool, len(sizes))
	for i, n := range sizes {
		sc := DefaultScenario(n, 6, uint64(91+i))
		nw, _, ok := sc.Sample("scratch-race", 0)
		if !ok {
			t.Fatalf("no connected topology for n=%d", n)
		}
		nets[i] = nw.G
		conn[i] = nw.G.Connected()
		if !conn[i] {
			t.Fatalf("sampled topology n=%d not connected", n)
		}
	}

	const iters = 64
	bad := make([]bool, iters)
	forEachPoint(iters, Parallelism(), func(i int) {
		// Pooled path: the convenience methods borrow from the shared pool,
		// so concurrent iterations continually exchange scratches of
		// different sizes.
		for round := 0; round < 4; round++ {
			for gi, g := range nets {
				if g.Connected() != conn[gi] {
					bad[i] = true
				}
			}
		}
		// Explicit path: one deliberately undersized scratch per iteration,
		// forced to grow as the graphs get bigger.
		s := graph.NewScratch(0)
		for gi, g := range nets {
			if g.ConnectedWith(s) != conn[gi] {
				bad[i] = true
			}
		}
		// Shrinking back down must also work (epoch marks stay valid).
		if !nets[0].ConnectedWith(s) {
			bad[i] = true
		}
	})
	for i, b := range bad {
		if b {
			t.Fatalf("iteration %d saw an inconsistent connectivity answer", i)
		}
	}
}

// allocsSteadyState warms a workspace over the replicates it will measure,
// then reports the average allocations of one replicate.
func allocsSteadyState(t *testing.T, est WSEstimator, sc Scenario) float64 {
	t.Helper()
	ws := NewWorkspace()
	const cycle = 8
	for rep := 0; rep < cycle; rep++ {
		if _, ok := est(ws, sc, rep); !ok {
			t.Fatalf("warmup replicate %d failed", rep)
		}
	}
	rep := 0
	return testing.AllocsPerRun(4*cycle, func() {
		est(ws, sc, rep%cycle)
		rep++
	})
}

// TestReplicateHotPathAllocs is the allocation-regression guard for the
// zero-allocation replicate engine: once a workspace is warm, a replicate
// of each figure pipeline must allocate (near) nothing. The bounds are
// deliberately tight — they are the point of PR 2.
func TestReplicateHotPathAllocs(t *testing.T) {
	sc := DefaultScenario(60, 6, 77)
	// Figure 6's static pair as one group: one sample, two digests and
	// selections per replicate.
	group := shared(sampledWS("fig6-static"), staticSize(coverage.Hop25), staticSize(coverage.Hop3))
	active, out := []bool{true, true}, make([]stats.Obs, 2)
	staticGroup := func(ws *Workspace, sc Scenario, rep int) (float64, bool) {
		group(ws, sc, rep, active, out)
		return out[0].X + out[1].X, out[0].OK && out[1].OK
	}
	cases := []struct {
		name string
		est  WSEstimator
		max  float64
	}{
		{"static-size-2.5hop", StaticSizeEstimatorWS(coverage.Hop25), 0},
		{"static-size-3hop", StaticSizeEstimatorWS(coverage.Hop3), 0},
		{"mocds-size", MOCDSSizeEstimatorWS(), 0},
		{"static-size-group", staticGroup, 0},
		// The broadcast estimators run on the engine workspace's dense
		// result, and the dynamic backbone keeps its coverage store and
		// packets in workspace arenas. The one object of the static and
		// MO_CDS broadcasts is the broadcast.StaticCDS value boxed into
		// the Protocol interface.
		{"dynamic-fwd-2.5hop", DynamicForwardEstimatorWS(coverage.Hop25), 0},
		{"static-fwd-2.5hop", StaticForwardEstimatorWS(coverage.Hop25), 1},
		{"mocds-fwd", MOCDSForwardEstimatorWS(), 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := allocsSteadyState(t, c.est, sc)
			if got > c.max {
				t.Fatalf("steady-state replicate allocates %.1f objects/run, want <= %g", got, c.max)
			}
		})
	}
}
