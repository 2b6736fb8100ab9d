package experiment

import (
	"fmt"

	"clustercast/internal/backbone"
	"clustercast/internal/broadcast"
	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/mcds"
	"clustercast/internal/mocds"
	"clustercast/internal/rng"
	"clustercast/internal/sim"
	"clustercast/internal/stats"
	"clustercast/internal/topology"
)

// ApproxRatio reproduces the §4 constant-approximation-ratio claim
// empirically: on small networks (where the exact MCDS is computable) it
// measures |CDS| / |MCDS| for the static backbone, the dynamic backbone's
// forwarder set, and the MO_CDS, sweeping the network size (ABL-RATIO).
// The four series divide by the same replicate's exact MCDS, so they run
// as one group and mcds.Exact runs once per replicate.
func ApproxRatio(ns []int, d float64, seed uint64, rule stats.StopRule) *Figure {
	type optimum struct {
		draw
		opt int // |MCDS|
	}
	exact := derived("ratio", func(_ *Workspace, _ Scenario, d draw) (optimum, bool) {
		opt := mcds.Exact(d.nw.G) // nil when the search is infeasible
		if opt == nil || opt.Count() == 0 {
			return optimum{}, false
		}
		return optimum{d, opt.Count()}, true
	})
	ratio := func(size func(d draw) int) member[optimum] {
		return func(_ *Workspace, _ Scenario, o optimum) (float64, bool) {
			return float64(size(o.draw)) / float64(o.opt), true
		}
	}
	return &Figure{
		ID:     "ratio",
		Title:  fmt.Sprintf("Empirical approximation ratio to the MCDS (d=%g)", d),
		XLabel: "n", YLabel: "|CDS| / |MCDS|",
		Series: sweepGroup([]string{"static-2.5hop", "dynamic-2.5hop", "mo-cds", "greedy-gk"}, sizes(ns, d, seed, rule),
			shared(exact,
				ratio(func(d draw) int { return backbone.BuildStatic(d.nw.G, d.cl, coverage.Hop25).Size() }),
				ratio(func(d draw) int { return broadcast.Run(d.nw.G, d.src, dynamicProto(d)).ForwardCount() }),
				ratio(func(d draw) int { return mocds.Build(d.nw.G, d.cl).Count() }),
				ratio(func(d draw) int { return mcds.Greedy(d.nw.G).Count() }),
			)),
	}
}

// MessageComplexity reproduces the §4 message-optimality claim: total
// construction messages of the distributed protocol versus network size
// (ABL-MSG). Linearity shows as a flat messages-per-node curve. Every
// series reads the same replicate's wire-protocol run, so the five run as
// one group and the protocol runs once per replicate.
func MessageComplexity(ns []int, d float64, seed uint64, rule stats.StopRule) *Figure {
	wire := func(ws *Workspace, sc Scenario, rep int) (*sim.Counters, bool) {
		nw, _, ok := sc.SampleWS(ws, "msg", rep)
		if !ok {
			return nil, false
		}
		return &sim.Run(nw.G, coverage.Hop25).Counters, true
	}
	total := func(_ *Workspace, _ Scenario, c *sim.Counters) (float64, bool) {
		return float64(c.Total()), true
	}
	perNode := func(_ *Workspace, sc Scenario, c *sim.Counters) (float64, bool) {
		return float64(c.Total()) / float64(sc.N), true
	}
	rounds := func(_ *Workspace, _ Scenario, c *sim.Counters) (float64, bool) {
		return float64(c.Rounds), true
	}
	meanActive := func(_ *Workspace, _ Scenario, c *sim.Counters) (float64, bool) {
		return c.MeanActive(), true
	}
	// idleFraction is the share of per-round node scans a round-synchronous
	// simulator wastes on silent nodes (1 − active/n, averaged over rounds):
	// the measured quantity behind the event-driven core's savings.
	idleFraction := func(_ *Workspace, sc Scenario, c *sim.Counters) (float64, bool) {
		if len(c.ActivePerRound) == 0 {
			return 0, false
		}
		idle := 0.0
		for _, a := range c.ActivePerRound {
			idle += 1 - float64(a)/float64(sc.N)
		}
		return idle / float64(len(c.ActivePerRound)), true
	}
	return &Figure{
		ID:     "msg",
		Title:  fmt.Sprintf("Distributed construction cost (d=%g)", d),
		XLabel: "n", YLabel: "messages",
		Series: sweepGroup(
			[]string{"total-messages", "messages-per-node", "rounds", "mean-active-per-round", "idle-fraction"},
			sizes(ns, d, seed, rule),
			shared(wire, total, perNode, rounds, meanActive, idleFraction)),
	}
}

// Baselines compares the dynamic backbone's forward-node count against the
// related-work protocols of §2: blind flooding, MPR, dominant pruning and
// partial dominant pruning (ABL-BASELINES). The five broadcast from the
// same replicate's network and source, as one group.
func Baselines(ns []int, d float64, seed uint64, rule stats.StopRule) *Figure {
	run := func(proto func(d draw) broadcast.Protocol) member[draw] {
		return func(_ *Workspace, _ Scenario, d draw) (float64, bool) {
			return float64(broadcast.Run(d.nw.G, d.src, proto(d)).ForwardCount()), true
		}
	}
	return &Figure{
		ID:     "baselines",
		Title:  fmt.Sprintf("Forward nodes across broadcast protocols (d=%g)", d),
		XLabel: "n", YLabel: "forward nodes",
		Series: sweepGroup([]string{"flooding", "mpr", "dp", "pdp", "dynamic-2.5hop"}, sizes(ns, d, seed, rule),
			shared(sampledWS("baselines"),
				run(floodingProto),
				run(func(d draw) broadcast.Protocol { return broadcast.NewMPR(d.nw.G) }),
				run(func(d draw) broadcast.Protocol { return broadcast.NewDP(d.nw.G) }),
				run(func(d draw) broadcast.Protocol { return broadcast.NewPDP(d.nw.G) }),
				run(dynamicProto),
			)),
	}
}

// TieBreak measures the effect of the paper's indirect-coverage
// tie-breaking rule on the static backbone size (ABL-TIE).
func TieBreak(ns []int, d float64, seed uint64, rule stats.StopRule) *Figure {
	size := func(opts backbone.Options) member[draw] {
		return func(_ *Workspace, _ Scenario, d draw) (float64, bool) {
			b := coverage.NewBuilder(d.nw.G, d.cl, coverage.Hop25)
			return float64(backbone.BuildStaticOpt(b, d.cl, opts).Size()), true
		}
	}
	return &Figure{
		ID:     "tiebreak",
		Title:  fmt.Sprintf("Static backbone size with/without the indirect tie-break (d=%g)", d),
		XLabel: "n", YLabel: "CDS size",
		Series: sweepGroup([]string{"with-tiebreak", "without-tiebreak"}, sizes(ns, d, seed, rule),
			shared(sampledWS("tiebreak"), size(backbone.Options{}), size(backbone.Options{NoIndirectTieBreak: true}))),
	}
}

// Mobility quantifies why the paper argues for on-demand (dynamic)
// backbones: under random-waypoint motion it measures, per time step, how
// many nodes change cluster affiliation and how many static-backbone
// memberships change — the maintenance churn a proactive SI-CDS would have
// to repair (ABL-MOBILITY). The sweep is over the maximum node speed; one
// waypoint run per replicate yields both counts.
func Mobility(speeds []float64, n int, d float64, steps int, seed uint64, rule stats.StopRule) *Figure {
	churn := func(speed float64) prefix[[2]float64] {
		return derived(fmt.Sprintf("mobility-%g", speed), func(_ *Workspace, sc Scenario, d draw) ([2]float64, bool) {
			mob := topology.NewRandomWaypoint(d.nw.Positions, sc.Bounds, speed/2, speed, 0,
				rng.NewLabeled(sc.Seed^uint64(d.rep), "waypoint"))
			prevCl := d.cl
			prevBB := backbone.BuildStatic(d.nw.G, prevCl, coverage.Hop25)
			var total [2]float64 // head changes, backbone-membership changes
			// Every step rebuilds into one workspace of the replicate's own:
			// the draw's workspace holds d.nw, which the group shares.
			var tw topology.Workspace
			for step := 0; step < steps; step++ {
				cur := tw.FromPositions(mob.Step(1), sc.Bounds, d.nw.Radius)
				curCl := cluster.LowestID(cur.G)
				curBB := backbone.BuildStatic(cur.G, curCl, coverage.Hop25)
				var c [2]int
				for v := 0; v < n; v++ {
					if prevCl.Head[v] != curCl.Head[v] {
						c[0]++
					}
					if prevBB.Nodes.Has(v) != curBB.Nodes.Has(v) {
						c[1]++
					}
				}
				total[0] += float64(c[0])
				total[1] += float64(c[1])
				prevCl, prevBB = curCl, curBB
			}
			return [2]float64{total[0] / float64(steps), total[1] / float64(steps)}, true
		})
	}
	nth := func(i int) member[[2]float64] {
		return func(_ *Workspace, _ Scenario, c [2]float64) (float64, bool) { return c[i], true }
	}
	return &Figure{
		ID:     "mobility",
		Title:  fmt.Sprintf("Backbone maintenance churn per step (n=%d, d=%g)", n, d),
		XLabel: "max speed", YLabel: "changes per step",
		Series: sweepAxis([]string{"cluster-affiliation-changes", "static-backbone-membership-changes"},
			along(speeds, n, d, seed, rule), 1, func(speed float64) groupEstimator {
				return shared(churn(speed), nth(0), nth(1))
			}),
	}
}

// Delivery confirms the correctness side of every protocol: delivery ratio
// over connected networks must be 1.0 for all CDS-based schemes.
func Delivery(ns []int, d float64, seed uint64, rule stats.StopRule) *Figure {
	ratio := func(label string, proto func(d draw) broadcast.Protocol) WSEstimator {
		return single(sampledWS("delivery-"+label), func(_ *Workspace, _ Scenario, d draw) (float64, bool) {
			return broadcast.Run(d.nw.G, d.src, proto(d)).DeliveryRatio(d.nw.N()), true
		})
	}
	return &Figure{
		ID:     "delivery",
		Title:  fmt.Sprintf("Delivery ratio (d=%g)", d),
		XLabel: "n", YLabel: "delivery ratio",
		Series: []Series{
			sweepWS("dynamic-2.5hop", ns, d, seed, rule, ratio("dyn", dynamicProto)),
			sweepWS("static-2.5hop", ns, d, seed, rule, ratio("static", staticProto)),
			sweepWS("mo-cds", ns, d, seed, rule, ratio("mocds", mocdsProto)),
		},
	}
}
