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

// prefix is the part of a replicate that the members of a group share —
// typically the sampled network, its clustering and the source — drawn
// once per replicate. ok=false skips the replicate for every member.
type prefix[D any] func(ws *Workspace, sc Scenario, rep int) (d D, ok bool)

// member is one series' per-replicate work in a group: its observation
// from the prefix's result d. ok=false skips the replicate for this series.
type member[D any] func(ws *Workspace, sc Scenario, d D) (x float64, ok bool)

// shared composes a group from the replicate prefix its members share and
// their per-series work: prefix runs once per replicate, then each active
// member measures its series from the prefix's result. A failed prefix
// skips the replicate for every member, as each member's own draw would
// have. Members run one after another on the same workspace: they may
// reuse its per-series layers (Builder, Backbone, MOCDS, Dynamic, Bcast),
// which each call resets, but must not modify what the prefix returned.
func shared[D any](pre prefix[D], members ...member[D]) groupEstimator {
	return func(ws *Workspace, sc Scenario, rep int, active []bool, out []stats.Obs) {
		d, ok := pre(ws, sc, rep)
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
func single[D any](pre prefix[D], m member[D]) WSEstimator {
	return func(ws *Workspace, sc Scenario, rep int) (float64, bool) {
		d, ok := pre(ws, sc, rep)
		if !ok {
			return 0, false
		}
		return m(ws, sc, d)
	}
}

// SweepPoint measures one data point of a series: the scenario's adaptive
// replication loop over the given worker count, with one pooled workspace
// per worker. The Point is bit-identical for every worker count (see
// stats.ReplicateNWorker).
func SweepPoint(sc Scenario, workers int, est WSEstimator) Point {
	return groupPoint(sc, float64(sc.N), workers, 1, alone(est))[0]
}

// workerSpaces holds one sweep point's per-worker workspaces, each taken
// from the pool on its worker's first replicate.
type workerSpaces []*Workspace

func (w workerSpaces) get(worker int) *Workspace {
	if w[worker] == nil {
		w[worker] = wsPool.Get().(*Workspace)
	}
	return w[worker]
}

// release folds the workers' stage clocks into the global stage table in
// worker-index order — replicate rep always runs on worker rep%workers, so
// the aggregate is identical for any scheduling of the same run — then
// resets them, so pooled workspaces never leak stage time across points,
// and returns the workspaces to the pool.
func (w workerSpaces) release() {
	for _, ws := range w {
		if ws != nil {
			obs.MergeStages(&ws.Clock)
			ws.Clock.Reset()
			wsPool.Put(ws)
		}
	}
}

// groupPoint measures one data point of every member of a group: one
// adaptive replication loop (stats.ReplicateGroup) over the given worker
// count, with one pooled workspace per worker, running the group
// estimator once per replicate. Member j's Point, plotted at x, is
// bit-identical to its standalone SweepPoint's for every worker count.
func groupPoint(sc Scenario, x float64, workers, k int, est groupEstimator) []Point {
	wss := make(workerSpaces, max(workers, 1))
	defer wss.release()
	timed := obs.Enabled() // snapshot once: a mid-point toggle must not skew stage sums
	sums, errs := stats.ReplicateGroup(sc.Rule, workers, k, func(worker, rep int, active []bool, out []stats.Obs) {
		ws := wss.get(worker)
		if timed {
			defer ws.Clock.Observe("replicate", time.Now())
		}
		est(ws, sc, rep, active, out)
	})
	pts := make([]Point, k)
	for j := range pts {
		pts[j] = measured(x, &sums[j], errs[j])
	}
	return pts
}

// measured is the Point, plotted at x, of one series' replication. A
// failed series records an empty point; renderers show it as missing
// (Reps == 0).
func measured(x float64, s *stats.Summary, err error) Point {
	if err != nil {
		return Point{X: x}
	}
	return Point{X: x, Mean: s.Mean(), CI: s.CI(0.99), Reps: s.N()}
}

// point is one data point of a sweep: the scenario it replicates and the
// x value it is plotted at.
type point struct {
	sc Scenario
	x  float64
}

// axis is the points of a sweep over xs: at each x, the scenario at(x)
// under the stopping rule.
func axis(xs []float64, rule stats.StopRule, at func(x float64) Scenario) []point {
	pts := make([]point, len(xs))
	for i, x := range xs {
		pts[i] = point{at(x), x}
		pts[i].sc.Rule = rule
	}
	return pts
}

// sizes is the network-size axis of the paper's sweeps: one point per n,
// at average degree d.
func sizes(ns []int, d float64, seed uint64, rule stats.StopRule) []point {
	return axis(floats(ns), rule, func(n float64) Scenario { return DefaultScenario(int(n), d, seed) })
}

// along is a sweep over a parameter other than the network size (speed,
// loss, window, k, rate, downtime, burst length): every point replicates
// n nodes at average degree d.
func along(xs []float64, n int, d float64, seed uint64, rule stats.StopRule) []point {
	return axis(xs, rule, func(float64) Scenario { return DefaultScenario(n, d, seed) })
}

// floats is an integer axis as plot coordinates.
func floats(xs []int) []float64 {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return fs
}

// sweepAxis is the one point loop of every figure: it runs the members of
// a group, named in order, over a sweep's points, and the result is one
// series per member. at(x) is the group estimator of the point plotted at
// x, which replicates on reps workers, or on as many as the pool has when
// reps is 0; a nil estimator (no valid model at x) plots missing points.
// Points run concurrently across the -workers pool. Results are
// bit-identical regardless of scheduling because every replicate's
// randomness derives only from (seed, label, rep) and each member folds
// its observations in replicate order.
func sweepAxis(names []string, pts []point, reps int, at func(x float64) groupEstimator) []Series {
	workers := Parallelism() // read once per run; race-safe snapshot
	if reps <= 0 {
		reps = workers
	}
	series := make([]Series, len(names))
	for j, name := range names {
		series[j] = Series{Name: name, Points: make([]Point, len(pts))}
	}
	forEachPoint(len(pts), workers, func(i int) {
		p := pts[i]
		est := at(p.x)
		if est == nil {
			for j := range series {
				series[j].Points[i].X = p.x
			}
			return
		}
		for j, pt := range groupPoint(p.sc, p.x, reps, len(names), est) {
			series[j].Points[i] = pt
		}
	})
	return series
}

// sweepGroup is sweepAxis for a group whose estimator is the same at every
// point, replicated on the pool's worker count.
func sweepGroup(names []string, pts []point, est groupEstimator) []Series {
	return sweepAxis(names, pts, 0, func(float64) groupEstimator { return est })
}

// sweepWS is the one-member group of a workspace estimator over the
// network sizes.
func sweepWS(name string, ns []int, d float64, seed uint64, rule stats.StopRule, est WSEstimator) Series {
	return sweepGroup([]string{name}, sizes(ns, d, seed, rule), alone(est))[0]
}

// flat measures a group once, at scenario sc on one replicate worker, and
// plots each member as a reference line: the same point at every x.
func flat(names []string, xs []float64, sc Scenario, est groupEstimator) []Series {
	ref := groupPoint(sc, 0, 1, len(names), est)
	series := make([]Series, len(names))
	for j, name := range names {
		series[j] = Series{Name: name, Points: make([]Point, len(xs))}
		for i, x := range xs {
			series[j].Points[i] = ref[j]
			series[j].Points[i].X = x
		}
	}
	return series
}

// Elect runs the lowest-ID clusterhead election on the workspace: one
// sequential pass in ID order for any -buildworkers value, with the
// round-synchronous outcome (a sharded election did not pay at two
// workers). The returned Clustering is workspace-owned.
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
func sampledWS(label string) prefix[draw] {
	return func(ws *Workspace, sc Scenario, rep int) (draw, bool) {
		nw, r, ok := sc.SampleWS(ws, label, rep)
		if !ok {
			return draw{}, false
		}
		return draw{nw: nw, cl: ws.Elect(nw.G), src: r.Intn(nw.N()), rep: rep}, true
	}
}

// derived is the prefix that draws a replicate under label (sampledWS) and
// derives the members' shared input from the draw.
func derived[D any](label string, derive func(ws *Workspace, sc Scenario, d draw) (D, bool)) prefix[D] {
	sample := sampledWS(label)
	return func(ws *Workspace, sc Scenario, rep int) (D, bool) {
		d, ok := sample(ws, sc, rep)
		if !ok {
			var none D
			return none, false
		}
		return derive(ws, sc, d)
	}
}

// The broadcast protocols the ablations compare, each built afresh over a
// replicate's draw.

func floodingProto(draw) broadcast.Protocol { return broadcast.Flooding{} }

func staticProto(d draw) broadcast.Protocol {
	return broadcast.StaticCDS{Set: backbone.BuildStatic(d.nw.G, d.cl, coverage.Hop25).Nodes}
}

func dynamicProto(d draw) broadcast.Protocol { return dynamicb.New(d.nw.G, d.cl, coverage.Hop25) }

func mocdsProto(d draw) broadcast.Protocol {
	return broadcast.StaticCDS{Set: mocds.Build(d.nw.G, d.cl)}
}

// staticSize is |static backbone| under a coverage mode.
func staticSize(mode coverage.Mode) member[draw] {
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
func dynamicForward(mode coverage.Mode) member[draw] {
	return func(ws *Workspace, _ Scenario, d draw) (float64, bool) {
		p := ws.Dynamic.NewWith(d.nw.G, d.cl, mode)
		return float64(p.BroadcastWS(d.src).ForwardCount()), true
	}
}

// staticForward is the forward-node count of a broadcast over the static
// backbone from the replicate's source.
func staticForward(mode coverage.Mode) member[draw] {
	return func(ws *Workspace, _ Scenario, d draw) (float64, bool) {
		ws.Digest(d.nw.G, d.cl, mode)
		nodes := ws.Backbone.StaticNodes(&ws.Builder, d.cl, backbone.Options{})
		return float64(ws.Bcast.Run(d.nw.G, d.src, broadcast.StaticCDS{Set: nodes}).ForwardCount()), true
	}
}

// mocdsForward is the forward-node count of a broadcast over the MO_CDS
// from the replicate's source.
func mocdsForward(ws *Workspace, _ Scenario, d draw) (float64, bool) {
	ws.Digest(d.nw.G, d.cl, coverage.Hop3)
	nodes := ws.MOCDS.NodesFrom(&ws.Builder, d.cl)
	return float64(ws.Bcast.Run(d.nw.G, d.src, broadcast.StaticCDS{Set: nodes}).ForwardCount()), true
}

// StaticSizeEstimatorWS measures |static backbone| under a coverage mode
// (Figure 6 series "static backbone") over a reusable workspace, with
// near-zero allocations.
func StaticSizeEstimatorWS(mode coverage.Mode) WSEstimator {
	return single(sampledWS("fig6-static"), staticSize(mode))
}

// MOCDSSizeEstimatorWS measures |MO_CDS| (Figure 6 series "MO_CDS").
func MOCDSSizeEstimatorWS() WSEstimator {
	return single(sampledWS("fig6-mocds"), mocdsSize)
}

// DynamicForwardEstimatorWS measures the forward-node-set size of one
// dynamic-backbone broadcast from a random source (Figure 7/8 series
// "dynamic backbone").
func DynamicForwardEstimatorWS(mode coverage.Mode) WSEstimator {
	return single(sampledWS("fig7-dynamic"), dynamicForward(mode))
}

// StaticForwardEstimatorWS measures the forward-node-set size of a
// broadcast over the static backbone from a random source (Figure 8 series
// "static backbone").
func StaticForwardEstimatorWS(mode coverage.Mode) WSEstimator {
	return single(sampledWS("fig8-static"), staticForward(mode))
}

// MOCDSForwardEstimatorWS measures the forward-node-set size of a
// broadcast over the MO_CDS from a random source (Figure 7 series
// "MO_CDS").
func MOCDSForwardEstimatorWS() WSEstimator {
	return single(sampledWS("fig7-mocds"), mocdsForward)
}
