package experiment

import (
	"fmt"

	"clustercast/internal/backbone"
	"clustercast/internal/broadcast"
	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/dynamicb"
	"clustercast/internal/mocds"
	"clustercast/internal/stats"
	"clustercast/internal/topology"
)

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
		return float64(mocds.Build(nw.G, cl).Size()), true
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
		c := mocds.Build(nw.G, cl)
		res := broadcast.Run(nw.G, r.source(nw.N()), broadcast.StaticCDS{Set: c.Nodes})
		return float64(res.ForwardCount()), true
	}
}

// Fig6 reproduces Figure 6: average size of the CDS — static backbone
// (2.5-hop and 3-hop) vs MO_CDS — for the given average degree d. The two
// static series share each replicate's network and clustering, so they
// run as one group.
func Fig6(d float64, ns []int, seed uint64, rule stats.StopRule) *Figure {
	static := sweepGroup([]string{"static-2.5hop", "static-3hop"}, sizes(ns, d, seed, rule),
		shared(sampledWS("fig6-static"), staticSize(coverage.Hop25), staticSize(coverage.Hop3)))
	return &Figure{
		ID:     figID("fig6", d),
		Title:  fmt.Sprintf("Average size of the CDS (d=%g)", d),
		XLabel: "n", YLabel: "CDS size",
		Series: append(static, sweepWS("mo-cds", ns, d, seed, rule, MOCDSSizeEstimatorWS())),
	}
}

// Fig7 reproduces Figure 7: average size of the forward node set — dynamic
// backbone (2.5-hop and 3-hop) vs broadcasting over the MO_CDS.
func Fig7(d float64, ns []int, seed uint64, rule stats.StopRule) *Figure {
	return &Figure{
		ID:     figID("fig7", d),
		Title:  fmt.Sprintf("Average size of the forward node set (d=%g)", d),
		XLabel: "n", YLabel: "forward nodes",
		Series: append(dynamicForwards(sizes(ns, d, seed, rule)),
			sweepWS("mo-cds", ns, d, seed, rule, MOCDSForwardEstimatorWS())),
	}
}

// Fig8 reproduces Figure 8: forward node sets of the static vs the dynamic
// backbone.
func Fig8(d float64, ns []int, seed uint64, rule stats.StopRule) *Figure {
	pts := sizes(ns, d, seed, rule)
	static := sweepGroup([]string{"static-2.5hop", "static-3hop"}, pts,
		shared(sampledWS("fig8-static"), staticForward(coverage.Hop25), staticForward(coverage.Hop3)))
	return &Figure{
		ID:     figID("fig8", d),
		Title:  fmt.Sprintf("Forward node set, static vs dynamic backbone (d=%g)", d),
		XLabel: "n", YLabel: "forward nodes",
		Series: append(static, dynamicForwards(pts)...),
	}
}

// dynamicForwards is the dynamic-backbone pair of Figures 7 and 8: the
// 2.5-hop and 3-hop broadcasts from each replicate's source, as one group.
func dynamicForwards(pts []point) []Series {
	return sweepGroup([]string{"dynamic-2.5hop", "dynamic-3hop"}, pts,
		shared(sampledWS("fig7-dynamic"), dynamicForward(coverage.Hop25), dynamicForward(coverage.Hop3)))
}

// figID builds the canonical figure identifier: the paper shows (a) d=6
// and (b) d=18 panels.
func figID(base string, d float64) string {
	switch d {
	case 6:
		return base + "a"
	case 18:
		return base + "b"
	default:
		return fmt.Sprintf("%s-d%g", base, d)
	}
}
