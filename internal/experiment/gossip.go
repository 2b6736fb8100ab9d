package experiment

import (
	"fmt"

	"clustercast/internal/broadcast"
	"clustercast/internal/stats"
)

// gossipSeedSalt keeps a replicate's gossip forward coins apart from its
// topology stream, which is seeded with the same multiplicative replicate
// mix of the scenario seed (Scenario.SampleWS).
const gossipSeedSalt = 0xA24BAED4963EE407

// GossipAblation sweeps the gossip forward probability and reads off the
// delivery ratio, one series per link-loss rate (loss 0 is the ideal MAC).
// ABL-GOSSIP. The phase transition — delivery climbing from near-zero to
// near-one over a narrow band of P — is the classic gossip result; loss
// shifts the critical probability right, which is exactly the margin a
// backbone does not have to pay.
func GossipAblation(ps []float64, losses []float64, n int, d float64, seed uint64, rule stats.StopRule) *Figure {
	pts := along(ps, n, d, seed, rule)
	series := make([]Series, 0, len(losses))
	for _, loss := range losses {
		name := "gossip-ideal"
		if loss > 0 {
			name = fmt.Sprintf("gossip-loss-%g", loss)
		}
		series = append(series, sweepAxis([]string{name}, pts, 1, func(p float64) groupEstimator {
			return shared(sampledWS(fmt.Sprintf("gossip-%g-%g", loss, p)),
				func(_ *Workspace, sc Scenario, d draw) (float64, bool) {
					g := broadcast.Gossip{P: p, Seed: sc.Seed ^ gossipSeedSalt ^ uint64(d.rep)*0x9E3779B97F4A7C15}
					opt := broadcast.Options{Loss: loss, Seed: sc.Seed ^ uint64(d.rep)}
					return broadcast.RunOpts(d.nw.G, d.src, g, opt).DeliveryRatio(d.nw.N()), true
				})
		})[0])
	}
	return &Figure{
		ID:     "gossip",
		Title:  fmt.Sprintf("Gossip phase transition under link loss (n=%d, d=%g)", n, d),
		XLabel: "forward probability", YLabel: "delivery ratio",
		Series: series,
	}
}
