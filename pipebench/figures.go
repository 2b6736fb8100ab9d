package main

import (
	"fmt"

	"clustercast/internal/backbone"
	"clustercast/internal/broadcast"
	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/dynamicb"
	"clustercast/internal/experiment"
	"clustercast/internal/graph"
	"clustercast/internal/sim"
	"clustercast/internal/stats"
	"clustercast/internal/topology"
)

// figures is the paper-figures workload: Figures 6a–8b plus the msg (wire
// protocol) and collision (single-source slotted MAC) ablations, under the
// paper's stopping rule, as cmd/figures runs them with its defaults.
//
// The untraced op calls the production figure functions. The traced op
// rebuilds the same figures from its own estimators, which call the layers
// in the same order and with the same labels through the production
// experiment.SweepPoint (Figures 6–8) and stats replication loops (msg,
// collision); its CSV bytes must equal the production ones.
type figures struct {
	seed    uint64
	twinWS  *experiment.Workspace // band-build twins of the traced op
	ns      []int
	degrees []float64 // collision ablation densities
	collN   int       // collision ablation network size
	rule    stats.StopRule
	workers int // replicate workers of the production op
}

func newFigures(cfg config) runner {
	f := &figures{
		seed:    cfg.seed,
		ns:      experiment.DefaultNs(),
		degrees: []float64{6, 10, 14, 18, 24},
		collN:   60,
		rule:    stats.PaperRule(),
		workers: 2,
		twinWS:  experiment.NewWorkspace(),
	}
	if cfg.tiny {
		// cmd/figures -quick rule over the two smallest sizes.
		f.ns = []int{20, 30}
		f.degrees = []float64{6, 18}
		f.collN = 30
		f.rule = stats.StopRule{Confidence: 0.95, RelHalfWidth: 0.15, MinReplicates: 10, MaxReplicates: 40}
	}
	if cfg.workers > 0 {
		f.workers = cfg.workers
	}
	return f
}

func (f *figures) op(tr *tracer) outcome {
	if tr.on {
		return f.traced(tr)
	}
	return f.production(tr, f.workers)
}

// configure sets the process-wide experiment knobs to the CLI defaults
// (scalar engines, no batch replication, sequential construction) with the
// given replicate workers.
func configure(workers int) {
	experiment.SetParallelism(workers)
	experiment.SetBuildWorkers(0)
	experiment.SetDES(false)
	experiment.SetBatchReplication(false)
}

// production runs the figures through the production runners.
func (f *figures) production(tr *tracer, workers int) outcome {
	configure(workers)
	runners := []func() *experiment.Figure{
		func() *experiment.Figure { return experiment.Fig6(6, f.ns, f.seed, f.rule) },
		func() *experiment.Figure { return experiment.Fig6(18, f.ns, f.seed, f.rule) },
		func() *experiment.Figure { return experiment.Fig7(6, f.ns, f.seed, f.rule) },
		func() *experiment.Figure { return experiment.Fig7(18, f.ns, f.seed, f.rule) },
		func() *experiment.Figure { return experiment.Fig8(6, f.ns, f.seed, f.rule) },
		func() *experiment.Figure { return experiment.Fig8(18, f.ns, f.seed, f.rule) },
		func() *experiment.Figure { return experiment.MessageComplexity(f.ns, 6, f.seed, f.rule) },
		func() *experiment.Figure { return experiment.Collision(f.degrees, f.collN, 0, f.seed, f.rule) },
	}
	figs := make([]*experiment.Figure, len(runners))
	for i, run := range runners {
		// Each figure is one call into the experiment layer, so that the
		// heap-measuring op reads the heap when a figure returns, while
		// the workspaces its sweeps pooled are still held.
		tr.span("experiment.figure", func() { figs[i] = run() })
	}
	o := newOutcome()
	f.record(tr, &o, figs)
	return o
}

// record digests each figure's id and CSV bytes and fails on missing points.
func (f *figures) record(tr *tracer, o *outcome, figs []*experiment.Figure) {
	tr.aside("", func() {
		for _, fig := range figs {
			o.record("%s\n%s", fig.ID, fig.CSV())
			for _, s := range fig.Series {
				for _, p := range s.Points {
					tr.add("experiment.replicates", float64(p.Reps))
					if p.Missing() {
						o.fail("%s %s: missing point at x=%g", fig.ID, s.Name, p.X)
					}
				}
			}
		}
	})
}

// traced runs the same figures on one replicate worker through the
// benchmark's own estimators.
func (f *figures) traced(tr *tracer) outcome {
	configure(1)
	o := newOutcome()
	c := calls{tr: tr, o: &o, twinWS: f.twinWS}
	figs := make([]*experiment.Figure, 0, 8)
	for _, d := range []float64{6, 18} {
		figs = append(figs, f.sweepWS(fmt.Sprintf("fig6%s", panel(d)), d, []namedEst{
			{"static-2.5hop", c.staticSizeEst(coverage.Hop25)},
			{"static-3hop", c.staticSizeEst(coverage.Hop3)},
			{"mo-cds", c.mocdsSizeEst()},
		}))
	}
	for _, d := range []float64{6, 18} {
		figs = append(figs, f.sweepWS(fmt.Sprintf("fig7%s", panel(d)), d, []namedEst{
			{"dynamic-2.5hop", c.dynamicFwdEst(coverage.Hop25)},
			{"dynamic-3hop", c.dynamicFwdEst(coverage.Hop3)},
			{"mo-cds", c.mocdsFwdEst()},
		}))
	}
	for _, d := range []float64{6, 18} {
		figs = append(figs, f.sweepWS(fmt.Sprintf("fig8%s", panel(d)), d, []namedEst{
			{"static-2.5hop", c.staticFwdEst(coverage.Hop25)},
			{"static-3hop", c.staticFwdEst(coverage.Hop3)},
			{"dynamic-2.5hop", c.dynamicFwdEst(coverage.Hop25)},
			{"dynamic-3hop", c.dynamicFwdEst(coverage.Hop3)},
		}))
	}
	figs = append(figs, f.msg(c), f.collision(c))
	f.record(tr, &o, figs)
	return o
}

func panel(d float64) string {
	if d == 6 {
		return "a"
	}
	return "b"
}

type namedEst struct {
	name string
	est  experiment.WSEstimator
}

// sweepWS is the production sweep of Figures 6–8 on one worker: one
// experiment.SweepPoint per network size.
func (f *figures) sweepWS(id string, d float64, series []namedEst) *experiment.Figure {
	fig := &experiment.Figure{ID: id}
	for _, s := range series {
		pts := make([]experiment.Point, len(f.ns))
		for i, n := range f.ns {
			sc := experiment.DefaultScenario(n, d, f.seed)
			sc.Rule = f.rule
			pts[i] = experiment.SweepPoint(sc, 1, s.est)
		}
		fig.Series = append(fig.Series, experiment.Series{Name: s.name, Points: pts})
	}
	return fig
}

// point runs one scenario's replication loop the way the production
// sweeps do and folds it into a Point (Reps == 0 marks a missing point).
func point(x float64, sum *stats.Summary, err error) experiment.Point {
	if err != nil {
		return experiment.Point{X: x}
	}
	return experiment.Point{X: x, Mean: sum.Mean(), CI: sum.CI(0.99), Reps: sum.N()}
}

// msg is experiment.MessageComplexity at d=6: every series samples a
// topology and runs the wire protocol per replicate.
func (f *figures) msg(c calls) *experiment.Figure {
	const d = 6.0
	series := []struct {
		name string
		stat func(cnt *sim.Counters, n int) (float64, bool)
	}{
		{"total-messages", func(cnt *sim.Counters, _ int) (float64, bool) { return float64(cnt.Total()), true }},
		{"messages-per-node", func(cnt *sim.Counters, n int) (float64, bool) { return float64(cnt.Total()) / float64(n), true }},
		{"rounds", func(cnt *sim.Counters, _ int) (float64, bool) { return float64(cnt.Rounds), true }},
		{"mean-active-per-round", func(cnt *sim.Counters, _ int) (float64, bool) { return cnt.MeanActive(), true }},
		{"idle-fraction", func(cnt *sim.Counters, n int) (float64, bool) {
			if len(cnt.ActivePerRound) == 0 {
				return 0, false
			}
			idle := 0.0
			for _, a := range cnt.ActivePerRound {
				idle += 1 - float64(a)/float64(n)
			}
			return idle / float64(len(cnt.ActivePerRound)), true
		}},
	}
	fig := &experiment.Figure{ID: "msg"}
	for _, s := range series {
		pts := make([]experiment.Point, len(f.ns))
		for i, n := range f.ns {
			sc := experiment.DefaultScenario(n, d, f.seed)
			sc.Rule = f.rule
			sum, err := stats.ReplicateN(sc.Rule, 1, func(rep int) (float64, bool) {
				nw, _, ok := c.sample(sc, "msg", rep)
				if !ok {
					return 0, false
				}
				return s.stat(&c.wire(nw.G, coverage.Hop25).Counters, sc.N)
			})
			pts[i] = point(float64(n), sum, err)
		}
		fig.Series = append(fig.Series, experiment.Series{Name: s.name, Points: pts})
	}
	return fig
}

// collision is experiment.Collision with jitter window 0: delivery ratio
// under the slotted MAC for flooding, the static and the dynamic backbone.
func (f *figures) collision(c calls) *experiment.Figure {
	type runFn func(nw *topology.Network, cl *cluster.Clustering, src int, opt broadcast.MACOptions) *broadcast.CollisionResult
	series := []struct {
		name string
		run  runFn
	}{
		{"flooding", func(nw *topology.Network, _ *cluster.Clustering, src int, opt broadcast.MACOptions) *broadcast.CollisionResult {
			return c.mac(nw.G, src, broadcast.Flooding{}, opt, nil)
		}},
		{"static-2.5hop", func(nw *topology.Network, cl *cluster.Clustering, src int, opt broadcast.MACOptions) *broadcast.CollisionResult {
			// backbone.BuildStatic, split at its layer boundary.
			b := spanV(c.tr, "coverage.digest25", func() *coverage.Builder { return coverage.NewBuilder(nw.G, cl, coverage.Hop25) })
			s := spanV(c.tr, "backbone.select", func() *backbone.Static { return backbone.BuildStaticFrom(b, cl) })
			c.backboneSize(s.Size(), nw.N())
			return c.mac(nw.G, src, broadcast.StaticCDS{Set: s.Nodes}, opt, nil)
		}},
		{"dynamic-2.5hop", func(nw *topology.Network, cl *cluster.Clustering, src int, opt broadcast.MACOptions) *broadcast.CollisionResult {
			p := spanV(c.tr, "dynamicb.init", func() *dynamicb.Protocol { return dynamicb.New(nw.G, cl, coverage.Hop25) })
			return c.mac(nw.G, src, p, opt, func() broadcast.Protocol { return dynamicb.New(nw.G, cl, coverage.Hop25) })
		}},
	}
	fig := &experiment.Figure{ID: "collision"}
	for _, s := range series {
		pts := make([]experiment.Point, len(f.degrees))
		for i, deg := range f.degrees {
			sc := experiment.DefaultScenario(f.collN, deg, f.seed)
			sc.Rule = f.rule
			label := fmt.Sprintf("collision-%g", deg)
			sum, err := stats.Replicate(sc.Rule, func(rep int) (float64, bool) {
				nw, r, ok := c.sample(sc, label, rep)
				if !ok {
					return 0, false
				}
				cl := c.elect(nil, nw.G)
				opt := broadcast.MACOptions{Jitter: 0, Seed: sc.Seed ^ uint64(rep)}
				res := s.run(nw, cl, r.Intn(nw.N()), opt)
				return res.DeliveryRatio(nw.N()), true
			})
			pts[i] = point(deg, sum, err)
		}
		fig.Series = append(fig.Series, experiment.Series{Name: s.name, Points: pts})
	}
	return fig
}

// The estimators below mirror experiment's Figure 6–8 estimators.

func (c calls) clusteredWS(ws *experiment.Workspace, sc experiment.Scenario, label string, rep int) (*topology.Network, *cluster.Clustering, func(int) int, bool) {
	nw, r, ok := c.sampleWS(ws, sc, label, rep)
	if !ok {
		return nil, nil, nil, false
	}
	return nw, c.elect(ws, nw.G), r.Intn, true
}

func (c calls) staticSizeEst(mode coverage.Mode) experiment.WSEstimator {
	return func(ws *experiment.Workspace, sc experiment.Scenario, rep int) (float64, bool) {
		nw, cl, _, ok := c.clusteredWS(ws, sc, "fig6-static", rep)
		if !ok {
			return 0, false
		}
		c.digest(ws, nw.G, cl, mode)
		size := spanV(c.tr, "backbone.select", func() int { return ws.Backbone.StaticSize(&ws.Builder, cl, noOpts) })
		c.backboneSize(size, nw.N())
		checkCDS(c.tr, c.o, "static backbone", nw.G, c.staticNodesAside(ws, cl), size)
		return float64(size), true
	}
}

// staticNodesAside recomputes the static backbone's membership for the
// Theorem 1 check of a size-only call.
func (c calls) staticNodesAside(ws *experiment.Workspace, cl *cluster.Clustering) (set *graph.Bitset) {
	c.tr.aside("", func() { set = ws.Backbone.StaticNodes(&ws.Builder, cl, noOpts) })
	return set
}

func (c calls) mocdsSizeEst() experiment.WSEstimator {
	return func(ws *experiment.Workspace, sc experiment.Scenario, rep int) (float64, bool) {
		nw, cl, _, ok := c.clusteredWS(ws, sc, "fig6-mocds", rep)
		if !ok {
			return 0, false
		}
		c.digest(ws, nw.G, cl, coverage.Hop3)
		size := spanV(c.tr, "mocds.select", func() int { return ws.MOCDS.SizeFrom(&ws.Builder, cl) })
		c.mocdsSize(size, nw.N())
		var set *graph.Bitset
		c.tr.aside("", func() { set = ws.MOCDS.NodesFrom(&ws.Builder, cl) })
		checkCDS(c.tr, c.o, "MO_CDS", nw.G, set, size)
		return float64(size), true
	}
}

func (c calls) dynamicFwdEst(mode coverage.Mode) experiment.WSEstimator {
	return func(ws *experiment.Workspace, sc experiment.Scenario, rep int) (float64, bool) {
		nw, cl, source, ok := c.clusteredWS(ws, sc, "fig7-dynamic", rep)
		if !ok {
			return 0, false
		}
		p := c.dynInit(ws.Dynamic, nw.G, cl, mode)
		return float64(c.dynBroadcast(p, source(nw.N()), nw.N())), true
	}
}

func (c calls) staticFwdEst(mode coverage.Mode) experiment.WSEstimator {
	return func(ws *experiment.Workspace, sc experiment.Scenario, rep int) (float64, bool) {
		nw, cl, source, ok := c.clusteredWS(ws, sc, "fig8-static", rep)
		if !ok {
			return 0, false
		}
		c.digest(ws, nw.G, cl, mode)
		nodes := spanV(c.tr, "backbone.select", func() *graph.Bitset { return ws.Backbone.StaticNodes(&ws.Builder, cl, noOpts) })
		c.backboneSize(nodes.Count(), nw.N())
		checkCDS(c.tr, c.o, "static backbone", nw.G, nodes, nodes.Count())
		res := c.ideal(ws.Bcast, nw.G, source(nw.N()), broadcast.StaticCDSBits{Set: nodes})
		checkDelivered(c.o, "static backbone", res.Received, nw.N())
		return float64(res.Forward), true
	}
}

func (c calls) mocdsFwdEst() experiment.WSEstimator {
	return func(ws *experiment.Workspace, sc experiment.Scenario, rep int) (float64, bool) {
		nw, cl, source, ok := c.clusteredWS(ws, sc, "fig7-mocds", rep)
		if !ok {
			return 0, false
		}
		c.digest(ws, nw.G, cl, coverage.Hop3)
		nodes := spanV(c.tr, "mocds.select", func() *graph.Bitset { return ws.MOCDS.NodesFrom(&ws.Builder, cl) })
		c.mocdsSize(nodes.Count(), nw.N())
		checkCDS(c.tr, c.o, "MO_CDS", nw.G, nodes, nodes.Count())
		res := c.ideal(ws.Bcast, nw.G, source(nw.N()), broadcast.StaticCDSBits{Set: nodes})
		checkDelivered(c.o, "MO_CDS", res.Received, nw.N())
		return float64(res.Forward), true
	}
}
