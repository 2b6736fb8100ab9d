package experiment

import (
	"fmt"

	"clustercast/internal/broadcast"
	"clustercast/internal/faults"
	"clustercast/internal/stats"
)

// gossipSeedSalt separates the gossip forward-coin stream from the fault
// coins and the topology stream: the batch kernel's coin words are a pure
// function of (seed, node), so without a salt the protocol would reuse the
// scenario's entropy verbatim.
const gossipSeedSalt = 0xA24BAED4963EE407

// GossipAblation sweeps the gossip forward probability and reads off the
// delivery ratio, one series per link-loss rate (loss 0 is the ideal MAC).
// ABL-GOSSIP. The phase transition — delivery climbing from near-zero to
// near-one over a narrow band of P — is the classic gossip result; loss
// shifts the critical probability right, which is exactly the margin a
// backbone does not have to pay.
//
// Every series is batchable: with SetBatchReplication on, each replicate
// batch advances 64 gossip replicates per machine word (lane-indexed
// forward coins, transition-free Gilbert–Elliott loss), making this the
// cheapest dense sweep in the suite.
func GossipAblation(ps []float64, losses []float64, n int, d float64, seed uint64, rule stats.StopRule) *Figure {
	pts := along(ps, n, d, seed, rule)
	series := make([]Series, 0, len(losses))
	for _, loss := range losses {
		name := "gossip-ideal"
		if loss > 0 {
			name = fmt.Sprintf("gossip-loss-%g", loss)
		}
		series = append(series, lossSweep(name, pts, 1, func(p float64) lossPoint {
			label := fmt.Sprintf("gossip-%g-%g", loss, p)
			return lossPoint{label, faults.Spec{LossGood: loss}, gossipKernel(p, seed^gossipSeedSalt),
				single(sampledWS(label), func(_ *Workspace, sc Scenario, d draw) (float64, bool) {
					g := broadcast.Gossip{P: p, Seed: batchSeed(sc.Seed^gossipSeedSalt, d.rep)}
					opt := broadcast.Options{Loss: loss, Seed: sc.Seed ^ uint64(d.rep)}
					return broadcast.RunOpts(d.nw.G, d.src, g, opt).DeliveryRatio(d.nw.N()), true
				})}
		}))
	}
	return &Figure{
		ID:     "gossip",
		Title:  fmt.Sprintf("Gossip phase transition under link loss (n=%d, d=%g)", n, d),
		XLabel: "forward probability", YLabel: "delivery ratio",
		Series: series,
	}
}
