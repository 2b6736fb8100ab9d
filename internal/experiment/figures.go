package experiment

import (
	"fmt"

	"clustercast/internal/coverage"
	"clustercast/internal/stats"
)

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
