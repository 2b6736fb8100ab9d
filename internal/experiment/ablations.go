package experiment

import (
	"fmt"

	"clustercast/internal/backbone"
	"clustercast/internal/broadcast"
	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/dynamicb"
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
func ApproxRatio(ns []int, d float64, seed uint64, rule stats.StopRule) *Figure {
	ratio := func(build func(*topology.Network, *cluster.Clustering, *rngSplit) int) Estimator {
		return func(sc Scenario, rep int) (float64, bool) {
			nw, cl, r, ok := clusteredSample(sc, "ratio", rep)
			if !ok {
				return 0, false
			}
			opt := mcds.Exact(nw.G)
			if opt == nil || len(opt) == 0 {
				return 0, false
			}
			return float64(build(nw, cl, r)) / float64(len(opt)), true
		}
	}
	return &Figure{
		ID:     "ratio",
		Title:  fmt.Sprintf("Empirical approximation ratio to the MCDS (d=%g)", d),
		XLabel: "n", YLabel: "|CDS| / |MCDS|",
		Series: []Series{
			sweep("static-2.5hop", ns, d, seed, rule, ratio(
				func(nw *topology.Network, cl *cluster.Clustering, _ *rngSplit) int {
					return backbone.BuildStatic(nw.G, cl, coverage.Hop25).Size()
				})),
			sweep("dynamic-2.5hop", ns, d, seed, rule, ratio(
				func(nw *topology.Network, cl *cluster.Clustering, r *rngSplit) int {
					return dynamicb.New(nw.G, cl, coverage.Hop25).Broadcast(r.source(nw.N())).ForwardCount()
				})),
			sweep("mo-cds", ns, d, seed, rule, ratio(
				func(nw *topology.Network, cl *cluster.Clustering, _ *rngSplit) int {
					return mocds.Build(nw.G, cl).Size()
				})),
			sweep("greedy-gk", ns, d, seed, rule, ratio(
				func(nw *topology.Network, _ *cluster.Clustering, _ *rngSplit) int {
					return len(mcds.Greedy(nw.G))
				})),
		},
	}
}

// MessageComplexity reproduces the §4 message-optimality claim: total
// construction messages of the distributed protocol versus network size
// (ABL-MSG). Linearity shows as a flat messages-per-node curve.
func MessageComplexity(ns []int, d float64, seed uint64, rule stats.StopRule) *Figure {
	total := func(sc Scenario, rep int) (float64, bool) {
		nw, _, ok := sc.Sample("msg", rep)
		if !ok {
			return 0, false
		}
		return float64(sim.Run(nw.G, coverage.Hop25).Counters.Total()), true
	}
	perNode := func(sc Scenario, rep int) (float64, bool) {
		v, ok := total(sc, rep)
		if !ok {
			return 0, false
		}
		return v / float64(sc.N), true
	}
	rounds := func(sc Scenario, rep int) (float64, bool) {
		nw, _, ok := sc.Sample("msg", rep)
		if !ok {
			return 0, false
		}
		return float64(sim.Run(nw.G, coverage.Hop25).Counters.Rounds), true
	}
	meanActive := func(sc Scenario, rep int) (float64, bool) {
		nw, _, ok := sc.Sample("msg", rep)
		if !ok {
			return 0, false
		}
		return sim.Run(nw.G, coverage.Hop25).Counters.MeanActive(), true
	}
	// idleFraction is the share of per-round node scans a round-synchronous
	// simulator wastes on silent nodes (1 − active/n, averaged over rounds):
	// the measured quantity behind the event-driven core's savings.
	idleFraction := func(sc Scenario, rep int) (float64, bool) {
		nw, _, ok := sc.Sample("msg", rep)
		if !ok {
			return 0, false
		}
		c := sim.Run(nw.G, coverage.Hop25).Counters
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
		Series: []Series{
			sweep("total-messages", ns, d, seed, rule, total),
			sweep("messages-per-node", ns, d, seed, rule, perNode),
			sweep("rounds", ns, d, seed, rule, rounds),
			sweep("mean-active-per-round", ns, d, seed, rule, meanActive),
			sweep("idle-fraction", ns, d, seed, rule, idleFraction),
		},
	}
}

// Baselines compares the dynamic backbone's forward-node count against the
// related-work protocols of §2: blind flooding, MPR, dominant pruning and
// partial dominant pruning (ABL-BASELINES).
func Baselines(ns []int, d float64, seed uint64, rule stats.StopRule) *Figure {
	run := func(build func(nw *topology.Network) broadcast.Protocol) Estimator {
		return func(sc Scenario, rep int) (float64, bool) {
			nw, r, ok := sc.Sample("baselines", rep)
			if !ok {
				return 0, false
			}
			res := broadcast.Run(nw.G, r.Intn(nw.N()), build(nw))
			return float64(res.ForwardCount()), true
		}
	}
	return &Figure{
		ID:     "baselines",
		Title:  fmt.Sprintf("Forward nodes across broadcast protocols (d=%g)", d),
		XLabel: "n", YLabel: "forward nodes",
		Series: []Series{
			sweep("flooding", ns, d, seed, rule, run(func(nw *topology.Network) broadcast.Protocol {
				return broadcast.Flooding{}
			})),
			sweep("mpr", ns, d, seed, rule, run(func(nw *topology.Network) broadcast.Protocol {
				return broadcast.NewMPR(broadcast.NewNeighborhood(nw.G))
			})),
			sweep("dp", ns, d, seed, rule, run(func(nw *topology.Network) broadcast.Protocol {
				return broadcast.NewDP(broadcast.NewNeighborhood(nw.G))
			})),
			sweep("pdp", ns, d, seed, rule, run(func(nw *topology.Network) broadcast.Protocol {
				return broadcast.NewPDP(broadcast.NewNeighborhood(nw.G))
			})),
			sweep("dynamic-2.5hop", ns, d, seed, rule, run(func(nw *topology.Network) broadcast.Protocol {
				return dynamicb.New(nw.G, cluster.LowestID(nw.G), coverage.Hop25)
			})),
		},
	}
}

// TieBreak measures the effect of the paper's indirect-coverage
// tie-breaking rule on the static backbone size (ABL-TIE).
func TieBreak(ns []int, d float64, seed uint64, rule stats.StopRule) *Figure {
	size := func(opts backbone.Options) Estimator {
		return func(sc Scenario, rep int) (float64, bool) {
			nw, cl, _, ok := clusteredSample(sc, "tiebreak", rep)
			if !ok {
				return 0, false
			}
			b := coverage.NewBuilder(nw.G, cl, coverage.Hop25)
			return float64(backbone.BuildStaticOpt(b, cl, opts).Size()), true
		}
	}
	return &Figure{
		ID:     "tiebreak",
		Title:  fmt.Sprintf("Static backbone size with/without the indirect tie-break (d=%g)", d),
		XLabel: "n", YLabel: "CDS size",
		Series: []Series{
			sweep("with-tiebreak", ns, d, seed, rule, size(backbone.Options{})),
			sweep("without-tiebreak", ns, d, seed, rule, size(backbone.Options{NoIndirectTieBreak: true})),
		},
	}
}

// Mobility quantifies why the paper argues for on-demand (dynamic)
// backbones: under random-waypoint motion it measures, per time step, how
// many nodes change cluster affiliation and how many static-backbone
// memberships change — the maintenance churn a proactive SI-CDS would have
// to repair (ABL-MOBILITY). The sweep is over the maximum node speed.
func Mobility(speeds []float64, n int, d float64, steps int, seed uint64, rule stats.StopRule) *Figure {
	churn := func(measure func(prev, cur map[int]bool, prevHead, curHead []int, n int) float64) func(speed float64) Estimator {
		return func(speed float64) Estimator {
			return func(sc Scenario, rep int) (float64, bool) {
				nw, _, ok := sc.Sample(fmt.Sprintf("mobility-%g", speed), rep)
				if !ok {
					return 0, false
				}
				mob := topology.NewRandomWaypoint(nw.Positions, sc.Bounds, speed/2, speed, 0,
					rng.NewLabeled(sc.Seed^uint64(rep), "waypoint"))
				prevNet := nw
				prevCl := cluster.LowestID(prevNet.G)
				prevBB := backbone.BuildStatic(prevNet.G, prevCl, coverage.Hop25)
				// Incremental edge maintenance: each step re-tests only the
				// grid cells the moved nodes touched instead of rebuilding
				// the whole unit disk graph.
				dyn := topology.NewDynamic(nw)
				total := 0.0
				for step := 0; step < steps; step++ {
					pos := mob.Step(1)
					cur := dyn.Step(pos)
					curCl := cluster.LowestID(cur.G)
					curBB := backbone.BuildStatic(cur.G, curCl, coverage.Hop25)
					total += measure(prevBB.Nodes, curBB.Nodes, prevCl.Head, curCl.Head, sc.N)
					prevCl, prevBB = curCl, curBB
				}
				return total / float64(steps), true
			}
		}
	}
	headChanges := func(_, _ map[int]bool, prevHead, curHead []int, n int) float64 {
		c := 0
		for v := 0; v < n; v++ {
			if prevHead[v] != curHead[v] {
				c++
			}
		}
		return float64(c)
	}
	backboneChanges := func(prev, cur map[int]bool, _, _ []int, n int) float64 {
		c := 0
		for v := 0; v < n; v++ {
			if prev[v] != cur[v] {
				c++
			}
		}
		return float64(c)
	}
	mkSeries := func(name string, est func(speed float64) Estimator) Series {
		s := Series{Name: name, Points: make([]Point, len(speeds))}
		ForEachPoint(len(speeds), func(i int) {
			speed := speeds[i]
			sc := DefaultScenario(n, d, seed)
			sc.Rule = rule
			sum, err := stats.Replicate(sc.Rule, func(rep int) (float64, bool) {
				return est(speed)(sc, rep)
			})
			if err != nil {
				s.Points[i] = Point{X: speed}
				return
			}
			s.Points[i] = Point{X: speed, Mean: sum.Mean(), CI: sum.CI(0.99), Reps: sum.N()}
		})
		return s
	}
	return &Figure{
		ID:     "mobility",
		Title:  fmt.Sprintf("Backbone maintenance churn per step (n=%d, d=%g)", n, d),
		XLabel: "max speed", YLabel: "changes per step",
		Series: []Series{
			mkSeries("cluster-affiliation-changes", churn(headChanges)),
			mkSeries("static-backbone-membership-changes", churn(backboneChanges)),
		},
	}
}

// Delivery confirms the correctness side of every protocol: delivery ratio
// over connected networks must be 1.0 for all CDS-based schemes.
func Delivery(ns []int, d float64, seed uint64, rule stats.StopRule) *Figure {
	ratio := func(label string, runOne func(nw *topology.Network, cl *cluster.Clustering, src int) *broadcast.Result) Estimator {
		return func(sc Scenario, rep int) (float64, bool) {
			nw, cl, r, ok := clusteredSample(sc, "delivery-"+label, rep)
			if !ok {
				return 0, false
			}
			res := runOne(nw, cl, r.source(nw.N()))
			return res.DeliveryRatio(nw.N()), true
		}
	}
	return &Figure{
		ID:     "delivery",
		Title:  fmt.Sprintf("Delivery ratio (d=%g)", d),
		XLabel: "n", YLabel: "delivery ratio",
		Series: []Series{
			sweep("dynamic-2.5hop", ns, d, seed, rule, ratio("dyn", func(nw *topology.Network, cl *cluster.Clustering, src int) *broadcast.Result {
				return dynamicb.New(nw.G, cl, coverage.Hop25).Broadcast(src)
			})),
			sweep("static-2.5hop", ns, d, seed, rule, ratio("static", func(nw *topology.Network, cl *cluster.Clustering, src int) *broadcast.Result {
				s := backbone.BuildStatic(nw.G, cl, coverage.Hop25)
				return broadcast.Run(nw.G, src, broadcast.StaticCDS{Set: s.Nodes})
			})),
			sweep("mo-cds", ns, d, seed, rule, ratio("mocds", func(nw *topology.Network, cl *cluster.Clustering, src int) *broadcast.Result {
				c := mocds.Build(nw.G, cl)
				return broadcast.Run(nw.G, src, broadcast.StaticCDS{Set: c.Nodes})
			})),
		},
	}
}
