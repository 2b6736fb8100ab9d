package main

import (
	"clustercast/internal/backbone"
	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/dynamicb"
	"clustercast/internal/experiment"
	"clustercast/internal/graph"
	"clustercast/internal/mocds"
)

// scale is the scale-100k workload: the cmd/scale stages static25, mocds
// and dynamic25 at n=100,000, d=18, five replicates each, each on a fresh
// topology, with construction and selection sharded over two workers
// (cmd/scale -reps 5 -workers 2 -buildworkers 2). About one sample in eight
// is rejected as disconnected and drawn again; five replicates per stage
// keep the number of redraws, and so the op time, from depending much on
// the seed.
type scale struct {
	n, reps int
	seed    uint64
	workers int
	ws      *experiment.Workspace
	pbb     *backbone.ParallelWorkspace
	pmo     *mocds.ParallelWorkspace

	// The traced run's worker-count twins run on their own workspaces so
	// that they never disturb the production call's state.
	twinWS  *experiment.Workspace
	twinCl  *cluster.ParallelWorkspace
	twinCov coverage.Builder
	twinBB  *backbone.ParallelWorkspace
	twinMO  *mocds.ParallelWorkspace
	twinDyn *dynamicb.Workspace
}

func newScale(cfg config) runner {
	s := &scale{n: 100_000, reps: 5, seed: cfg.seed, workers: 2}
	if cfg.tiny {
		s.n = 3000
	}
	if cfg.workers > 0 {
		s.workers = cfg.workers
	}
	s.ws = experiment.NewWorkspace()
	s.pbb = backbone.NewParallelWorkspace()
	s.pmo = mocds.NewParallelWorkspace()
	s.twinWS = experiment.NewWorkspace()
	s.twinCl = cluster.NewParallelWorkspace()
	s.twinBB = backbone.NewParallelWorkspace()
	s.twinMO = mocds.NewParallelWorkspace()
	s.twinDyn = dynamicb.NewWorkspace()
	return s
}

var noOpts = backbone.Options{}

func (s *scale) op(tr *tracer) outcome {
	configure(1)
	experiment.SetBuildWorkers(s.workers)
	o := newOutcome()
	c := calls{tr: tr, o: &o, twinWS: s.twinWS}
	sc := experiment.DefaultScenario(s.n, 18, s.seed)
	for _, stage := range []string{"static25", "mocds", "dynamic25"} {
		for rep := 0; rep < s.reps; rep++ {
			s.stage(c, sc, stage, rep)
		}
	}
	return o
}

// stage runs one replicate of a cmd/scale stage.
func (s *scale) stage(c calls, sc experiment.Scenario, stage string, rep int) {
	tr, o, b := c.tr, c.o, &s.ws.Builder
	label := "scale-" + stage
	nw, _, ok := c.sampleWS(s.ws, sc, label, rep)
	if !ok {
		return
	}
	g := nw.G
	cl := c.elect(s.ws, g)
	c.tr.twins("cluster.elect", func(w int) {
		checkSame(o, "election twin", len(s.twinCl.LowestID(g, w).Heads), len(cl.Heads))
	})
	var v int
	switch stage {
	case "static25":
		c.digest(s.ws, g, cl, coverage.Hop25)
		v = spanV(tr, "backbone.select", func() int {
			if s.workers > 1 {
				return s.pbb.StaticSize(b, cl, noOpts, s.workers)
			}
			return s.ws.Backbone.StaticSize(b, cl, noOpts)
		})
		c.backboneSize(v, s.n)
		checkCDS(tr, o, stage, g, s.staticNodesAside(tr, cl), v)
		tr.twins("backbone.select", func(w int) {
			checkSame(o, "backbone selection twin", s.twinBB.StaticSize(b, cl, noOpts, w), v)
		})
	case "mocds":
		c.digest(s.ws, g, cl, coverage.Hop3)
		tr.twins("coverage.digest3", func(w int) { s.twinCov.ResetParallel(g, cl, coverage.Hop3, w) })
		v = spanV(tr, "mocds.select", func() int {
			if s.workers > 1 {
				return s.pmo.SizeFrom(b, cl, s.workers)
			}
			return s.ws.MOCDS.SizeFrom(b, cl)
		})
		c.mocdsSize(v, s.n)
		var nodes *graph.Bitset
		tr.aside("", func() { nodes = s.twinMO.NodesFrom(b, cl, 1) })
		checkCDS(tr, o, stage, g, nodes, v)
		tr.twins("mocds.select", func(w int) {
			checkSame(o, "MO_CDS selection twin", s.twinMO.SizeFrom(b, cl, w), v)
		})
	case "dynamic25":
		p := c.dynInit(s.ws.Dynamic, g, cl, coverage.Hop25)
		v = c.dynBroadcast(p, s.n/2, s.n)
		tr.twins("dynamicb.init", func(w int) {
			s.twinDyn.BuildWorkers = w
			s.twinDyn.NewWith(g, cl, coverage.Hop25)
		})
	}
	o.record("%s rep %d: %d\n", stage, rep, v)
}

// staticNodesAside recomputes the static backbone's membership for the
// Theorem 1 check of the size-only selection call.
func (s *scale) staticNodesAside(tr *tracer, cl *cluster.Clustering) (set *graph.Bitset) {
	tr.aside("", func() { set = s.twinBB.StaticNodes(&s.ws.Builder, cl, noOpts, 1) })
	return set
}
