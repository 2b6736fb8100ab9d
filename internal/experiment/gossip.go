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
	workers := Parallelism()
	mk := func(loss float64) Series {
		name := "gossip-ideal"
		if loss > 0 {
			name = fmt.Sprintf("gossip-loss-%g", loss)
		}
		s := Series{Name: name, Points: make([]Point, len(ps))}
		forEachPoint(len(ps), workers, func(i int) {
			p := ps[i]
			sc := DefaultScenario(n, d, seed)
			sc.Rule = rule
			label := fmt.Sprintf("gossip-%g-%g", loss, p)
			iid := faults.Spec{LossGood: loss}
			if useBatch(iid) {
				spec := func(batch int) faults.Spec {
					if loss == 0 {
						return faults.Spec{}
					}
					return faults.Spec{LossGood: loss, Seed: batchSeed(sc.Seed, batch)}
				}
				s.Points[i] = BatchSweepPoint(sc, workers, p, label, spec, gossipKernel(p, sc.Seed^gossipSeedSalt))
				return
			}
			sum, err := stats.Replicate(sc.Rule, func(rep int) (float64, bool) {
				nw, _, r, ok := clusteredSample(sc, label, rep)
				if !ok {
					return 0, false
				}
				g := broadcast.Gossip{P: p, Seed: batchSeed(sc.Seed^gossipSeedSalt, rep)}
				opt := broadcast.Options{Loss: loss, Seed: sc.Seed ^ uint64(rep)}
				res := broadcast.RunOpts(nw.G, r.source(nw.N()), g, opt)
				return res.DeliveryRatio(nw.N()), true
			})
			if err != nil {
				s.Points[i] = Point{X: p}
				return
			}
			s.Points[i] = Point{X: p, Mean: sum.Mean(), CI: sum.CI(0.99), Reps: sum.N()}
		})
		return s
	}
	series := make([]Series, 0, len(losses))
	for _, loss := range losses {
		series = append(series, mk(loss))
	}
	return &Figure{
		ID:     "gossip",
		Title:  fmt.Sprintf("Gossip phase transition under link loss (n=%d, d=%g)", n, d),
		XLabel: "forward probability", YLabel: "delivery ratio",
		Series: series,
	}
}
