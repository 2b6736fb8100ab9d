package experiment

import (
	"sync"
	"time"

	"clustercast/internal/backbone"
	"clustercast/internal/broadcast"
	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/dynamicb"
	"clustercast/internal/graph"
	"clustercast/internal/mocds"
	"clustercast/internal/obs"
	"clustercast/internal/rng"
	"clustercast/internal/stats"
	"clustercast/internal/topology"
)

// Workspace composes the per-subsystem workspaces one replicate pipeline
// needs: topology sampling, clusterhead election, coverage digestion,
// gateway selection, the MO_CDS baseline and the dynamic-backbone
// protocol. Each worker of a sweep owns one Workspace for the duration of
// a data point, so steady-state replicates allocate (almost) nothing.
//
// Everything an estimator derives from a workspace — the sampled network,
// the clustering, coverage sets, node bitsets — is valid only until the
// workspace's next replicate.
type Workspace struct {
	Topo     *topology.Workspace
	Cluster  *cluster.Workspace
	Builder  coverage.Builder
	Backbone *backbone.Workspace
	MOCDS    *mocds.Workspace
	Dynamic  *dynamicb.Workspace
	Bcast    *broadcast.Workspace
	Batch    broadcast.BatchWorkspace

	// Clock accumulates per-stage wall time for this worker when
	// observability is enabled. SweepPoint merges worker clocks into the
	// process-wide stage table in worker-index order, so the aggregate is
	// deterministic for any scheduling.
	Clock obs.StageClock

	rng rng.Stream // per-replicate stream, reseeded by SampleWS
	src rng.Stream // split child handed to estimators (source selection)
}

// NewWorkspace returns an empty workspace; all buffers grow on first use.
func NewWorkspace() *Workspace {
	return &Workspace{
		Topo:     topology.NewWorkspace(),
		Cluster:  cluster.NewWorkspace(),
		Backbone: backbone.NewWorkspace(),
		MOCDS:    mocds.NewWorkspace(),
		Dynamic:  dynamicb.NewWorkspace(),
		Bcast:    broadcast.NewWorkspace(),
	}
}

// wsPool recycles workspaces across data points, so a whole figure run
// needs only about worker-count workspaces in flight.
var wsPool = sync.Pool{New: func() any { return NewWorkspace() }}

// SampleWS is Scenario.Sample over a reusable workspace: identical
// randomness consumption (reseed instead of construct, split-into instead
// of split), identical rejection sampling, bit-identical network.
func (sc Scenario) SampleWS(ws *Workspace, label string, rep int) (*topology.Network, *rng.Stream, bool) {
	if obs.Enabled() {
		defer ws.Clock.Observe("sample", time.Now())
	}
	ws.rng.SeedLabeled(sc.Seed^uint64(rep)*0x9E3779B97F4A7C15, label)
	// Propagate the construction knob to the stages with their own builders.
	// Every sharded path is bit-identical to its sequential reference, so
	// the sample (and everything derived from it) does not depend on this.
	bw := effectiveBuildWorkers()
	ws.Topo.BuildWorkers = bw
	ws.Dynamic.BuildWorkers = bw
	nw, err := topology.GenerateWith(topology.Config{
		N: sc.N, Bounds: sc.Bounds, AvgDegree: sc.AvgDegree,
		RequireConnected: true, MaxAttempts: 200,
	}, ws.Topo, &ws.rng)
	if err != nil {
		noteSampleError(label, rep, err)
		return nil, nil, false
	}
	ws.rng.SplitInto(&ws.src)
	return nw, &ws.src, true
}

// WSEstimator measures one replicate of a metric using workspace-owned
// buffers. ok=false skips the replicate (discarded topology).
type WSEstimator func(ws *Workspace, sc Scenario, rep int) (float64, bool)

// SweepPoint measures one data point of a series: the scenario's adaptive
// replication loop over the given worker count, with one pooled workspace
// per worker. The Point is bit-identical for every worker count (see
// stats.ReplicateNWorker).
func SweepPoint(sc Scenario, workers int, est WSEstimator) Point {
	slots := workers
	if slots < 1 {
		slots = 1
	}
	wss := make([]*Workspace, slots)
	timed := obs.Enabled() // snapshot once: a mid-point toggle must not skew stage sums
	sum, err := stats.ReplicateNWorker(sc.Rule, workers, func(worker, rep int) (float64, bool) {
		ws := wss[worker]
		if ws == nil {
			ws = wsPool.Get().(*Workspace)
			wss[worker] = ws
		}
		if timed {
			defer ws.Clock.Observe("replicate", time.Now())
		}
		return est(ws, sc, rep)
	})
	if timed {
		// Fold worker clocks into the global stage table in worker-index
		// order: replicate rep always runs on worker rep%workers, so the
		// aggregate is identical for any scheduling of the same run.
		clocks := make([]*obs.StageClock, 0, slots)
		for _, ws := range wss {
			if ws != nil {
				clocks = append(clocks, &ws.Clock)
			}
		}
		obs.MergeStages(clocks...)
	}
	for _, ws := range wss {
		if ws != nil {
			ws.Clock.Reset() // pooled workspaces must not leak stage time across points
			wsPool.Put(ws)
		}
	}
	if err != nil {
		// Record an empty point; renderers show it as missing (Reps == 0).
		return Point{X: float64(sc.N)}
	}
	return Point{X: float64(sc.N), Mean: sum.Mean(), CI: sum.CI(0.99), Reps: sum.N()}
}

// sweepWS is sweep for workspace-threaded estimators.
func sweepWS(name string, ns []int, d float64, seed uint64, rule stats.StopRule, est WSEstimator) Series {
	workers := Parallelism() // read once per run; race-safe snapshot
	s := Series{Name: name, Points: make([]Point, len(ns))}
	forEachPoint(len(ns), workers, func(i int) {
		sc := DefaultScenario(ns[i], d, seed)
		sc.Rule = rule
		s.Points[i] = SweepPoint(sc, workers, est)
	})
	return s
}

// Elect runs the lowest-ID clusterhead election on the workspace. The
// election is sequential for any -buildworkers value: a sharded election
// did not pay at two workers. The returned Clustering is
// workspace-owned.
func (ws *Workspace) Elect(g *graph.Graph) *cluster.Clustering {
	return ws.Cluster.LowestID(g)
}

// Digest re-digests the workspace coverage builder through the configured
// construction path. With the knob on it always takes ResetParallel —
// its restructured CH_HOP2 pass (dedupe-before-sort, dense-index probes)
// is faster than Reset even at one worker — and shards it across the
// effective worker count; knob off keeps the golden-reference Reset.
// Either way the published digests are bit-identical.
func (ws *Workspace) Digest(g *graph.Graph, cl *cluster.Clustering, mode coverage.Mode) {
	if w := effectiveBuildWorkers(); w > 0 {
		ws.Builder.ResetParallel(g, cl, mode, w)
		return
	}
	ws.Builder.Reset(g, cl, mode)
}

// clusteredSampleWS draws a topology and its lowest-ID clustering over the
// workspace.
func clusteredSampleWS(ws *Workspace, sc Scenario, label string, rep int) (*topology.Network, *cluster.Clustering, *rng.Stream, bool) {
	nw, r, ok := sc.SampleWS(ws, label, rep)
	if !ok {
		return nil, nil, nil, false
	}
	return nw, ws.Elect(nw.G), r, true
}

// StaticSizeEstimatorWS is StaticSizeEstimator over a reusable workspace:
// same labels, same replicate randomness, same statistic — near-zero
// allocations.
func StaticSizeEstimatorWS(mode coverage.Mode) WSEstimator {
	return func(ws *Workspace, sc Scenario, rep int) (float64, bool) {
		nw, cl, _, ok := clusteredSampleWS(ws, sc, "fig6-static", rep)
		if !ok {
			return 0, false
		}
		ws.Digest(nw.G, cl, mode)
		return float64(ws.Backbone.StaticSize(&ws.Builder, cl, backbone.Options{})), true
	}
}

// MOCDSSizeEstimatorWS is MOCDSSizeEstimator over a reusable workspace.
func MOCDSSizeEstimatorWS() WSEstimator {
	return func(ws *Workspace, sc Scenario, rep int) (float64, bool) {
		nw, cl, _, ok := clusteredSampleWS(ws, sc, "fig6-mocds", rep)
		if !ok {
			return 0, false
		}
		ws.Digest(nw.G, cl, coverage.Hop3)
		return float64(ws.MOCDS.SizeFrom(&ws.Builder, cl)), true
	}
}

// DynamicForwardEstimatorWS is DynamicForwardEstimator over a reusable
// workspace.
func DynamicForwardEstimatorWS(mode coverage.Mode) WSEstimator {
	return func(ws *Workspace, sc Scenario, rep int) (float64, bool) {
		nw, cl, r, ok := clusteredSampleWS(ws, sc, "fig7-dynamic", rep)
		if !ok {
			return 0, false
		}
		p := ws.Dynamic.NewWith(nw.G, cl, mode)
		res := p.BroadcastWS(r.Intn(nw.N()))
		return float64(res.ForwardCount()), true
	}
}

// StaticForwardEstimatorWS is StaticForwardEstimator over a reusable
// workspace.
func StaticForwardEstimatorWS(mode coverage.Mode) WSEstimator {
	return func(ws *Workspace, sc Scenario, rep int) (float64, bool) {
		nw, cl, r, ok := clusteredSampleWS(ws, sc, "fig8-static", rep)
		if !ok {
			return 0, false
		}
		ws.Digest(nw.G, cl, mode)
		nodes := ws.Backbone.StaticNodes(&ws.Builder, cl, backbone.Options{})
		res := ws.Bcast.Run(nw.G, r.Intn(nw.N()), broadcast.StaticCDSBits{Set: nodes})
		return float64(res.ForwardCount()), true
	}
}

// MOCDSForwardEstimatorWS is MOCDSForwardEstimator over a reusable
// workspace.
func MOCDSForwardEstimatorWS() WSEstimator {
	return func(ws *Workspace, sc Scenario, rep int) (float64, bool) {
		nw, cl, r, ok := clusteredSampleWS(ws, sc, "fig7-mocds", rep)
		if !ok {
			return 0, false
		}
		ws.Digest(nw.G, cl, coverage.Hop3)
		nodes := ws.MOCDS.NodesFrom(&ws.Builder, cl)
		res := ws.Bcast.Run(nw.G, r.Intn(nw.N()), broadcast.StaticCDSBits{Set: nodes})
		return float64(res.ForwardCount()), true
	}
}
