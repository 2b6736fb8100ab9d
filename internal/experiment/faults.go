package experiment

import (
	"fmt"

	"clustercast/internal/backbone"
	"clustercast/internal/broadcast"
	"clustercast/internal/coverage"
	"clustercast/internal/faults"
	"clustercast/internal/stats"
)

// faultsMeanDown is the mean outage length (slots) used by the churn sweep;
// the downtime fraction q then fixes MeanUp = MeanDown·(1−q)/q.
const faultsMeanDown = 50

// faultsWarmup advances the churn processes far enough that the up/down
// alternation is in steady state when the broadcast starts, so the swept
// downtime fraction is actually realized at t = 0 (every node starts up
// without a warm-up, biasing small-t runs toward full delivery).
const faultsWarmup = 200

// churnSpec builds the fault schedule of one replicate of the churn sweep:
// exponential up/down node churn at steady-state downtime fraction q.
// q == 0 disables churn entirely (the ideal model).
func churnSpec(q float64, seed uint64) faults.Spec {
	spec := faults.Spec{Seed: seed}
	if q > 0 {
		spec.MeanDown = faultsMeanDown
		spec.MeanUp = faultsMeanDown * (1 - q) / q
		spec.Warmup = faultsWarmup
	}
	return spec
}

// liveSource returns the first node that is alive at t = 0, scanning from
// the drawn source and wrapping, so every replicate broadcasts from a node
// that can actually transmit. ok is false when nobody is alive.
func liveSource(start, n int, alive func(int) bool) (int, bool) {
	for i := 0; i < n; i++ {
		if v := (start + i) % n; alive(v) {
			return v, true
		}
	}
	return 0, false
}

// liveDelivery is the churn sweep's metric: the fraction of the nodes that
// are up when the broadcast starts (t = 0) that receive the packet. Nodes
// that are down at t = 0 could not have participated, so counting them
// would conflate protocol failure with scheduled absence.
func liveDelivery(res *broadcast.Result, n int, alive func(int) bool) (float64, bool) {
	up, got := 0, 0
	for v := 0; v < n; v++ {
		if alive(v) {
			up++
			if res.Received[v] {
				got++
			}
		}
	}
	if up == 0 {
		return 0, false
	}
	return float64(got) / float64(up), true
}

// Faults measures delivery under node crash/recovery churn: the fraction of
// live nodes reached, swept over the steady-state downtime fraction q.
// ABL-FAULTS. The static backbone appears twice — once run stale (built for
// the full graph and left alone, the paper's proactive structure decaying
// under churn) and once repaired with backbone.Repair against the t = 0
// crash state — so the value of self-healing is the gap between the two
// curves. Flooding, the dynamic (source-dependent) backbone and the MO_CDS
// complete the comparison.
func Faults(qs []float64, n int, d float64, seed uint64, rule stats.StopRule) *Figure {
	type churned struct {
		draw
		o     *faults.Oracle
		alive func(int) bool
	}
	// sample builds the replicate's common state: topology, clustering, fault
	// oracle (seeded per replicate), and a live source.
	sample := func(label string, q float64) prefix[churned] {
		return derived(label, func(_ *Workspace, sc Scenario, d draw) (churned, bool) {
			o := faults.New(churnSpec(q, sc.Seed^uint64(d.rep)), d.nw.N())
			o.SetPositions(d.nw.Positions)
			alive := o.Alive(0)
			src, ok := liveSource(d.src, d.nw.N(), alive)
			d.src = src
			return churned{d, o, alive}, ok
		})
	}
	pts := along(qs, n, d, seed, rule)
	// mk sweeps one protocol; a nil protocol skips the replicate.
	mk := func(name string, proto func(c churned) broadcast.Protocol) Series {
		return sweepAxis([]string{name}, pts, 0, func(q float64) groupEstimator {
			return shared(sample(fmt.Sprintf("faults-%s-%g", name, q), q),
				func(_ *Workspace, _ Scenario, c churned) (float64, bool) {
					p := proto(c)
					if p == nil {
						return 0, false
					}
					return liveDelivery(broadcast.RunOpts(c.nw.G, c.src, p, broadcast.Options{Faults: c.o}), c.nw.N(), c.alive)
				})
		})[0]
	}
	of := func(proto func(draw) broadcast.Protocol) func(churned) broadcast.Protocol {
		return func(c churned) broadcast.Protocol { return proto(c.draw) }
	}
	return &Figure{
		ID:     "faults",
		Title:  fmt.Sprintf("Delivery to live nodes under crash/recovery churn (n=%d, d=%g, MTTR=%d)", n, d, faultsMeanDown),
		XLabel: "downtime fraction", YLabel: "delivery ratio (live nodes)",
		Series: []Series{
			mk("flooding", of(floodingProto)),
			mk("static-2.5hop-stale", of(staticProto)),
			mk("static-2.5hop-repaired", func(c churned) broadcast.Protocol {
				base := backbone.BuildStatic(c.nw.G, c.cl, coverage.Hop25)
				allUp := func(int) bool { return true }
				_, rep, _, err := backbone.Repair(c.nw.G, c.cl, base, allUp, c.alive, backbone.Options{}, nil)
				if err != nil {
					return nil
				}
				return broadcast.StaticCDS{Set: rep.Nodes}
			}),
			mk("dynamic-2.5hop", of(dynamicProto)),
			mk("mo-cds", of(mocdsProto)),
		},
	}
}

// Burstiness holds the stationary loss rate fixed and sweeps the mean burst
// length of the Gilbert–Elliott link chain: L = 1 reproduces the i.i.d.
// loss of ABL-LOSSY exactly, larger L concentrates the same number of lost
// copies into correlated runs. ABL-BURST. Burstiness hurts sparse backbones
// more than flooding because a burst takes out every retransmission
// opportunity a single relay had, while flooding's redundancy rides across
// independent links. A burst length SetBurst rejects plots a missing
// point.
func Burstiness(burstLens []float64, p float64, n int, d float64, seed uint64, rule stats.StopRule) *Figure {
	pts := along(burstLens, n, d, seed, rule)
	mk := func(name string, proto func(d draw) broadcast.Protocol) Series {
		return sweepAxis([]string{name}, pts, 0, func(L float64) groupEstimator {
			var burst faults.Spec
			if err := burst.SetBurst(p, L); err != nil {
				return nil
			}
			return shared(sampledWS(fmt.Sprintf("burst-%s-%g", name, L)),
				func(_ *Workspace, sc Scenario, d draw) (float64, bool) {
					spec := burst
					spec.Seed = sc.Seed ^ uint64(d.rep)
					opt := broadcast.Options{Faults: faults.New(spec, d.nw.N())}
					return broadcast.RunOpts(d.nw.G, d.src, proto(d), opt).DeliveryRatio(d.nw.N()), true
				})
		})[0]
	}
	return &Figure{
		ID:     "burst",
		Title:  fmt.Sprintf("Delivery under bursty link loss, fixed rate p=%g (n=%d, d=%g)", p, n, d),
		XLabel: "mean burst length", YLabel: "delivery ratio",
		Series: []Series{
			mk("flooding", floodingProto),
			mk("static-2.5hop", staticProto),
			mk("dynamic-2.5hop", dynamicProto),
			mk("mo-cds", mocdsProto),
		},
	}
}
