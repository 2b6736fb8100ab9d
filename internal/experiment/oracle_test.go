package experiment

import (
	"clustercast/internal/backbone"
	"clustercast/internal/broadcast"
	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/dynamicb"
	"clustercast/internal/mocds"
	"clustercast/internal/stats"
	"clustercast/internal/topology"
)

// The allocating Figure 6-8 estimators: the scalar reference every
// workspace estimator is checked against (TestWorkspaceSweepsMatchLegacy).
// They sample through Scenario.Sample and build every structure afresh.

// Estimator measures one replicate of a metric under a scenario. ok=false
// skips the replicate (discarded topology).
type Estimator func(sc Scenario, rep int) (float64, bool)

// sweep runs one series of a scalar estimator over the network sizes.
func sweep(name string, ns []int, d float64, seed uint64, rule stats.StopRule, est Estimator) Series {
	return sweepWS(name, ns, d, seed, rule, func(_ *Workspace, sc Scenario, rep int) (float64, bool) {
		return est(sc, rep)
	})
}

// clusteredSample draws a topology and its lowest-ID clustering.
func clusteredSample(sc Scenario, label string, rep int) (*topology.Network, *cluster.Clustering, *rngSplit, bool) {
	nw, r, ok := sc.Sample(label, rep)
	if !ok {
		return nil, nil, nil, false
	}
	return nw, cluster.LowestID(nw.G), &rngSplit{r}, true
}

// rngSplit wraps the per-replicate stream with the one operation the
// estimators need.
type rngSplit struct{ r interface{ Intn(int) int } }

func (s *rngSplit) source(n int) int { return s.r.Intn(n) }

// StaticSizeEstimator measures |static backbone| under a coverage mode
// (Figure 6 series "static backbone").
func StaticSizeEstimator(mode coverage.Mode) Estimator {
	return func(sc Scenario, rep int) (float64, bool) {
		nw, cl, _, ok := clusteredSample(sc, "fig6-static", rep)
		if !ok {
			return 0, false
		}
		return float64(backbone.BuildStatic(nw.G, cl, mode).Size()), true
	}
}

// MOCDSSizeEstimator measures |MO_CDS| (Figure 6 series "MO_CDS").
func MOCDSSizeEstimator() Estimator {
	return func(sc Scenario, rep int) (float64, bool) {
		nw, cl, _, ok := clusteredSample(sc, "fig6-mocds", rep)
		if !ok {
			return 0, false
		}
		return float64(mocds.Build(nw.G, cl).Count()), true
	}
}

// DynamicForwardEstimator measures the forward-node-set size of one
// dynamic-backbone broadcast from a random source (Figure 7/8 series
// "dynamic backbone").
func DynamicForwardEstimator(mode coverage.Mode) Estimator {
	return func(sc Scenario, rep int) (float64, bool) {
		nw, cl, r, ok := clusteredSample(sc, "fig7-dynamic", rep)
		if !ok {
			return 0, false
		}
		p := dynamicb.New(nw.G, cl, mode)
		res := p.Broadcast(r.source(nw.N()))
		return float64(res.ForwardCount()), true
	}
}

// StaticForwardEstimator measures the forward-node-set size of a broadcast
// over the static backbone from a random source (Figure 8 series "static
// backbone").
func StaticForwardEstimator(mode coverage.Mode) Estimator {
	return func(sc Scenario, rep int) (float64, bool) {
		nw, cl, r, ok := clusteredSample(sc, "fig8-static", rep)
		if !ok {
			return 0, false
		}
		s := backbone.BuildStatic(nw.G, cl, mode)
		res := broadcast.Run(nw.G, r.source(nw.N()), broadcast.StaticCDS{Set: s.Nodes})
		return float64(res.ForwardCount()), true
	}
}

// MOCDSForwardEstimator measures the forward-node-set size of a broadcast
// over the MO_CDS from a random source (Figure 7 series "MO_CDS").
func MOCDSForwardEstimator() Estimator {
	return func(sc Scenario, rep int) (float64, bool) {
		nw, cl, r, ok := clusteredSample(sc, "fig7-mocds", rep)
		if !ok {
			return 0, false
		}
		res := broadcast.Run(nw.G, r.source(nw.N()), broadcast.StaticCDS{Set: mocds.Build(nw.G, cl)})
		return float64(res.ForwardCount()), true
	}
}
