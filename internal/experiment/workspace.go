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
	// observability is enabled. Each sweep point merges worker clocks into
	// the process-wide stage table in worker-index order, so the aggregate
	// is deterministic for any scheduling.
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
	// Hand the strip count to the layers with their own workspaces (Digest
	// reads it itself). Every layer's result is bit-identical for any strip
	// count, so the sample and everything derived from it do not depend
	// on this.
	bw := effectiveBuildWorkers()
	ws.Topo.BuildWorkers = bw
	ws.Backbone.BuildWorkers = bw
	ws.MOCDS.BuildWorkers = bw
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

// groupEstimator measures one replicate of every member of a group sweep:
// it fills out[j] for each member j still replicating (active[j]).
type groupEstimator func(ws *Workspace, sc Scenario, rep int, active []bool, out []stats.Obs)

// alone is the one-member group of a standalone estimator.
func alone(est WSEstimator) groupEstimator {
	return func(ws *Workspace, sc Scenario, rep int, _ []bool, out []stats.Obs) {
		out[0].X, out[0].OK = est(ws, sc, rep)
	}
}

// shared composes a group from the replicate prefix its members share and
// their per-series work: prefix runs once per replicate, then each active
// member measures its series from the prefix's result. A failed prefix
// skips the replicate for every member, as each member's own draw would
// have. Members run one after another on the same workspace: they may
// reuse its per-series layers (Builder, Backbone, MOCDS, Dynamic, Bcast),
// which each call resets, but must not modify what the prefix returned.
func shared[D any](prefix func(*Workspace, Scenario, int) (D, bool), members ...func(*Workspace, Scenario, D) (float64, bool)) groupEstimator {
	return func(ws *Workspace, sc Scenario, rep int, active []bool, out []stats.Obs) {
		d, ok := prefix(ws, sc, rep)
		for j, m := range members {
			if active[j] {
				out[j] = stats.Obs{}
				if ok {
					out[j].X, out[j].OK = m(ws, sc, d)
				}
			}
		}
	}
}

// single is the standalone estimator of one group member: the same prefix
// and per-series work, for one series.
func single[D any](prefix func(*Workspace, Scenario, int) (D, bool), member func(*Workspace, Scenario, D) (float64, bool)) WSEstimator {
	return func(ws *Workspace, sc Scenario, rep int) (float64, bool) {
		d, ok := prefix(ws, sc, rep)
		if !ok {
			return 0, false
		}
		return member(ws, sc, d)
	}
}

// SweepPoint measures one data point of a series: the scenario's adaptive
// replication loop over the given worker count, with one pooled workspace
// per worker. The Point is bit-identical for every worker count (see
// stats.ReplicateNWorker).
func SweepPoint(sc Scenario, workers int, est WSEstimator) Point {
	return groupPoint(sc, float64(sc.N), workers, 1, alone(est))[0]
}

// groupPoint measures one data point of every member of a group: one
// adaptive replication loop (stats.ReplicateGroup) over the given worker
// count, with one pooled workspace per worker, running the group
// estimator once per replicate. Member j's Point, plotted at x, is
// bit-identical to its standalone SweepPoint's for every worker count.
func groupPoint(sc Scenario, x float64, workers, k int, est groupEstimator) []Point {
	slots := max(workers, 1)
	wss := make([]*Workspace, slots)
	timed := obs.Enabled() // snapshot once: a mid-point toggle must not skew stage sums
	sums, errs := stats.ReplicateGroup(sc.Rule, workers, k, func(worker, rep int, active []bool, out []stats.Obs) {
		ws := wss[worker]
		if ws == nil {
			ws = wsPool.Get().(*Workspace)
			wss[worker] = ws
		}
		if timed {
			defer ws.Clock.Observe("replicate", time.Now())
		}
		est(ws, sc, rep, active, out)
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
	pts := make([]Point, k)
	for j := range pts {
		// A failed member records an empty point; renderers show it as
		// missing (Reps == 0).
		pts[j] = Point{X: x}
		if errs[j] == nil {
			pts[j] = Point{X: x, Mean: sums[j].Mean(), CI: sums[j].CI(0.99), Reps: sums[j].N()}
		}
	}
	return pts
}

// point is one data point of a sweep: the scenario it replicates and the
// x value it is plotted at.
type point struct {
	sc Scenario
	x  float64
}

// sizes is the network-size axis of the paper's sweeps: one point per n,
// at average degree d under the given stopping rule.
func sizes(ns []int, d float64, seed uint64, rule stats.StopRule) []point {
	pts := make([]point, len(ns))
	for i, n := range ns {
		sc := DefaultScenario(n, d, seed)
		sc.Rule = rule
		pts[i] = point{sc, float64(n)}
	}
	return pts
}

// sweepGroup runs the members of a group, named in order, over a sweep's
// points and returns one series per member. Points run concurrently
// across the worker pool, each with as many replicate workers. Results
// are bit-identical regardless of scheduling because every replicate's
// randomness derives only from (seed, label, rep) and each member folds
// its observations in replicate order.
func sweepGroup(names []string, pts []point, est groupEstimator) []Series {
	workers := Parallelism() // read once per run; race-safe snapshot
	series := make([]Series, len(names))
	for j, name := range names {
		series[j] = Series{Name: name, Points: make([]Point, len(pts))}
	}
	forEachPoint(len(pts), workers, func(i int) {
		for j, p := range groupPoint(pts[i].sc, pts[i].x, workers, len(names), est) {
			series[j].Points[i] = p
		}
	})
	return series
}

// sweepWS is sweep for workspace-threaded estimators.
func sweepWS(name string, ns []int, d float64, seed uint64, rule stats.StopRule, est WSEstimator) Series {
	return sweepGroup([]string{name}, sizes(ns, d, seed, rule), alone(est))[0]
}

// Elect runs the lowest-ID clusterhead election on the workspace. The
// election is sequential for any -buildworkers value: a sharded election
// did not pay at two workers. The returned Clustering is
// workspace-owned.
func (ws *Workspace) Elect(g *graph.Graph) *cluster.Clustering {
	return ws.Cluster.LowestID(g)
}

// Digest re-digests the workspace coverage builder, cut into the
// -buildworkers strip count (one strip for 0 or 1). The digest is
// bit-identical for any strip count.
func (ws *Workspace) Digest(g *graph.Graph, cl *cluster.Clustering, mode coverage.Mode) {
	ws.Builder.ResetParallel(g, cl, mode, effectiveBuildWorkers())
}

// draw is the prefix of one replicate that the series of a group share:
// the sampled network, its lowest-ID clustering and the broadcast source.
type draw struct {
	nw  *topology.Network
	cl  *cluster.Clustering
	src int
	rep int
}

// sampledWS is the replicate prefix of the paper's figures, drawn over the
// workspace: the topology sampled under label, its clustering, and the
// source as the first draw of the replicate's split stream. Series that
// share a label therefore share every replicate's network, clustering and
// source, whether they run as one group or one at a time.
func sampledWS(label string) func(*Workspace, Scenario, int) (draw, bool) {
	return func(ws *Workspace, sc Scenario, rep int) (draw, bool) {
		nw, r, ok := sc.SampleWS(ws, label, rep)
		if !ok {
			return draw{}, false
		}
		return draw{nw: nw, cl: ws.Elect(nw.G), src: r.Intn(nw.N()), rep: rep}, true
	}
}

// staticSize is |static backbone| under a coverage mode.
func staticSize(mode coverage.Mode) func(*Workspace, Scenario, draw) (float64, bool) {
	return func(ws *Workspace, _ Scenario, d draw) (float64, bool) {
		ws.Digest(d.nw.G, d.cl, mode)
		return float64(ws.Backbone.StaticSize(&ws.Builder, d.cl, backbone.Options{})), true
	}
}

// mocdsSize is |MO_CDS|.
func mocdsSize(ws *Workspace, _ Scenario, d draw) (float64, bool) {
	ws.Digest(d.nw.G, d.cl, coverage.Hop3)
	return float64(ws.MOCDS.SizeFrom(&ws.Builder, d.cl)), true
}

// dynamicForward is the forward-node count of one dynamic-backbone
// broadcast from the replicate's source.
func dynamicForward(mode coverage.Mode) func(*Workspace, Scenario, draw) (float64, bool) {
	return func(ws *Workspace, _ Scenario, d draw) (float64, bool) {
		p := ws.Dynamic.NewWith(d.nw.G, d.cl, mode)
		return float64(p.BroadcastWS(d.src).ForwardCount()), true
	}
}

// staticForward is the forward-node count of a broadcast over the static
// backbone from the replicate's source.
func staticForward(mode coverage.Mode) func(*Workspace, Scenario, draw) (float64, bool) {
	return func(ws *Workspace, _ Scenario, d draw) (float64, bool) {
		ws.Digest(d.nw.G, d.cl, mode)
		nodes := ws.Backbone.StaticNodes(&ws.Builder, d.cl, backbone.Options{})
		return float64(ws.Bcast.Run(d.nw.G, d.src, broadcast.StaticCDSBits{Set: nodes}).ForwardCount()), true
	}
}

// mocdsForward is the forward-node count of a broadcast over the MO_CDS
// from the replicate's source.
func mocdsForward(ws *Workspace, _ Scenario, d draw) (float64, bool) {
	ws.Digest(d.nw.G, d.cl, coverage.Hop3)
	nodes := ws.MOCDS.NodesFrom(&ws.Builder, d.cl)
	return float64(ws.Bcast.Run(d.nw.G, d.src, broadcast.StaticCDSBits{Set: nodes}).ForwardCount()), true
}

// StaticSizeEstimatorWS is StaticSizeEstimator over a reusable workspace:
// same labels, same replicate randomness, same statistic — near-zero
// allocations.
func StaticSizeEstimatorWS(mode coverage.Mode) WSEstimator {
	return single(sampledWS("fig6-static"), staticSize(mode))
}

// MOCDSSizeEstimatorWS is MOCDSSizeEstimator over a reusable workspace.
func MOCDSSizeEstimatorWS() WSEstimator {
	return single(sampledWS("fig6-mocds"), mocdsSize)
}

// DynamicForwardEstimatorWS is DynamicForwardEstimator over a reusable
// workspace.
func DynamicForwardEstimatorWS(mode coverage.Mode) WSEstimator {
	return single(sampledWS("fig7-dynamic"), dynamicForward(mode))
}

// StaticForwardEstimatorWS is StaticForwardEstimator over a reusable
// workspace.
func StaticForwardEstimatorWS(mode coverage.Mode) WSEstimator {
	return single(sampledWS("fig8-static"), staticForward(mode))
}

// MOCDSForwardEstimatorWS is MOCDSForwardEstimator over a reusable
// workspace.
func MOCDSForwardEstimatorWS() WSEstimator {
	return single(sampledWS("fig7-mocds"), mocdsForward)
}
