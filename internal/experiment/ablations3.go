package experiment

import (
	"fmt"

	"clustercast/internal/backbone"
	"clustercast/internal/broadcast"
	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/dynamicb"
	"clustercast/internal/hier"
	"clustercast/internal/routing"
	"clustercast/internal/sim"
	"clustercast/internal/stats"
	"clustercast/internal/topology"
)

// Pruning reproduces the §3 trade-off between the two redundancy-pruning
// techniques the paper discusses: back-off self-pruning ("more delay
// time") versus piggybacked coverage pruning ("increase the message
// length", the dynamic backbone's choice). The sweep is over the back-off
// window; the piggyback series is flat since it takes no extra delay.
// Two series pairs are reported: forward nodes and latency. ABL-PRUNING.
func Pruning(windows []int, n int, d float64, seed uint64, rule stats.StopRule) *Figure {
	type metric struct {
		name    string
		measure func(res *broadcast.Result) float64
	}
	metrics := []metric{
		{"sba-forwards", func(r *broadcast.Result) float64 { return float64(r.ForwardCount()) }},
		{"sba-latency", func(r *broadcast.Result) float64 { return float64(r.Latency) }},
	}
	var series []Series
	for _, m := range metrics {
		m := m
		s := Series{Name: m.name, Points: make([]Point, len(windows))}
		ForEachPoint(len(windows), func(i int) {
			window := windows[i]
			sc := DefaultScenario(n, d, seed)
			sc.Rule = rule
			sum, err := stats.Replicate(sc.Rule, func(rep int) (float64, bool) {
				nw, r, ok := sc.Sample(fmt.Sprintf("pruning-%d", window), rep)
				if !ok {
					return 0, false
				}
				nb := broadcast.NewNeighborhood(nw.G)
				res := broadcast.RunTimed(nw.G, r.Intn(nw.N()),
					broadcast.NewSBA(nb, window, sc.Seed^uint64(rep)))
				if len(res.Received) != nw.N() {
					return 0, false
				}
				return m.measure(res), true
			})
			if err != nil {
				s.Points[i] = Point{X: float64(window)}
				return
			}
			s.Points[i] = Point{X: float64(window), Mean: sum.Mean(), CI: sum.CI(0.99), Reps: sum.N()}
		})
		series = append(series, s)
	}

	// Piggyback pruning (the dynamic backbone) as flat reference lines.
	flat := func(name string, measure func(res *broadcast.Result) float64) Series {
		sc := DefaultScenario(n, d, seed)
		sc.Rule = rule
		sum, err := stats.Replicate(sc.Rule, func(rep int) (float64, bool) {
			nw, cl, r, ok := clusteredSample(sc, "pruning-dyn", rep)
			if !ok {
				return 0, false
			}
			res := dynamicb.New(nw.G, cl, coverage.Hop25).Broadcast(r.source(nw.N()))
			return measure(res), true
		})
		s := Series{Name: name, Points: make([]Point, len(windows))}
		for i := range s.Points {
			p := Point{X: float64(windows[i])}
			if err == nil {
				p.Mean = sum.Mean()
				p.CI = sum.CI(0.99)
				p.Reps = sum.N()
			}
			s.Points[i] = p
		}
		return s
	}
	series = append(series,
		flat("piggyback-forwards", func(r *broadcast.Result) float64 { return float64(r.ForwardCount()) }),
		flat("piggyback-latency", func(r *broadcast.Result) float64 { return float64(r.Latency) }),
	)

	return &Figure{
		ID:     "pruning",
		Title:  fmt.Sprintf("Back-off vs piggyback pruning (n=%d, d=%g)", n, d),
		XLabel: "back-off window", YLabel: "forward nodes / latency",
		Series: series,
	}
}

// Routing measures route discovery over the broadcast service (the
// application the paper's introduction motivates): RREQ transmissions and
// route stretch when the request is flooded blindly versus over the
// dynamic backbone. ABL-ROUTING.
func Routing(ns []int, d float64, seed uint64, rule stats.StopRule) *Figure {
	est := func(useBackbone bool, metric string) Estimator {
		return func(sc Scenario, rep int) (float64, bool) {
			nw, cl, r, ok := clusteredSample(sc, "routing", rep)
			if !ok {
				return 0, false
			}
			src := r.source(nw.N())
			dst := r.source(nw.N())
			if src == dst {
				return 0, false
			}
			var p broadcast.Protocol
			if useBackbone {
				p = dynamicb.New(nw.G, cl, coverage.Hop25)
			} else {
				p = broadcast.Flooding{}
			}
			route, err := routing.Discover(nw.G, src, dst, p)
			if err != nil {
				return 0, false
			}
			if metric == "cost" {
				return float64(route.RequestCost), true
			}
			return route.Stretch(nw.G), true
		}
	}
	return &Figure{
		ID:     "routing",
		Title:  fmt.Sprintf("Route discovery over the broadcast service (d=%g)", d),
		XLabel: "n", YLabel: "RREQ transmissions / stretch",
		Series: []Series{
			sweep("flooding-cost", ns, d, seed, rule, est(false, "cost")),
			sweep("backbone-cost", ns, d, seed, rule, est(true, "cost")),
			sweep("flooding-stretch", ns, d, seed, rule, est(false, "stretch")),
			sweep("backbone-stretch", ns, d, seed, rule, est(true, "stretch")),
		},
	}
}

// Storm reproduces the broadcast storm analysis (Ni et al., the paper's
// [9]): redundant receptions per node versus density, for flooding and the
// backbones. ABL-STORM. The sweep is over the average degree at n=80.
func Storm(degrees []float64, n int, seed uint64, rule stats.StopRule) *Figure {
	mk := func(name string, runOne func(nw *topology.Network, cl *cluster.Clustering, src int) *broadcast.Result) Series {
		s := Series{Name: name, Points: make([]Point, len(degrees))}
		ForEachPoint(len(degrees), func(i int) {
			deg := degrees[i]
			sc := DefaultScenario(n, deg, seed)
			sc.Rule = rule
			sum, err := stats.Replicate(sc.Rule, func(rep int) (float64, bool) {
				nw, cl, r, ok := clusteredSample(sc, fmt.Sprintf("storm-%g", deg), rep)
				if !ok {
					return 0, false
				}
				return runOne(nw, cl, r.source(nw.N())).Redundancy(), true
			})
			if err != nil {
				s.Points[i] = Point{X: deg}
				return
			}
			s.Points[i] = Point{X: deg, Mean: sum.Mean(), CI: sum.CI(0.99), Reps: sum.N()}
		})
		return s
	}
	return &Figure{
		ID:     "storm",
		Title:  fmt.Sprintf("Redundant receptions per node vs density (n=%d)", n),
		XLabel: "avg degree", YLabel: "redundant copies per node",
		Series: []Series{
			mk("flooding", func(nw *topology.Network, cl *cluster.Clustering, src int) *broadcast.Result {
				return broadcast.Run(nw.G, src, broadcast.Flooding{})
			}),
			mk("dynamic-2.5hop", func(nw *topology.Network, cl *cluster.Clustering, src int) *broadcast.Result {
				return dynamicb.New(nw.G, cl, coverage.Hop25).Broadcast(src)
			}),
			mk("sba-w4", func(nw *topology.Network, cl *cluster.Clustering, src int) *broadcast.Result {
				nb := broadcast.NewNeighborhood(nw.G)
				return broadcast.RunTimed(nw.G, src, broadcast.NewSBA(nb, 4, 1))
			}),
			mk("counter-3", func(nw *topology.Network, cl *cluster.Clustering, src int) *broadcast.Result {
				return broadcast.RunTimed(nw.G, src, broadcast.CounterBased{Threshold: 3, MaxDelay: 4, Seed: 1})
			}),
			mk("distance-0.4r", func(nw *topology.Network, cl *cluster.Clustering, src int) *broadcast.Result {
				return broadcast.RunTimed(nw.G, src, broadcast.DistanceBased{
					Positions: nw.Positions, MinDistance: nw.Radius * 0.4, MaxDelay: 4, Seed: 1,
				})
			}),
		},
	}
}

// Hierarchy measures the repository's future-work extension: how many
// clusterheads survive at each level of the multi-level hierarchy as the
// network grows — geometric shrinkage is what makes hierarchical
// addressing scale. ABL-HIER.
func Hierarchy(ns []int, d float64, levels int, seed uint64, rule stats.StopRule) *Figure {
	headsAt := func(level int) Estimator {
		return func(sc Scenario, rep int) (float64, bool) {
			nw, _, ok := sc.Sample("hier", rep)
			if !ok {
				return 0, false
			}
			h, err := hier.Build(nw.G, levels+1)
			if err != nil {
				return 0, false
			}
			if level >= h.Depth() {
				return 1, true // fully collapsed: one head remains
			}
			return float64(len(h.HeadsAt(level))), true
		}
	}
	var series []Series
	for lvl := 0; lvl <= levels; lvl++ {
		series = append(series,
			sweep(fmt.Sprintf("level-%d-heads", lvl), ns, d, seed, rule, headsAt(lvl)))
	}
	return &Figure{
		ID:     "hier",
		Title:  fmt.Sprintf("Clusterheads per hierarchy level (d=%g)", d),
		XLabel: "n", YLabel: "heads",
		Series: series,
	}
}

// Collision drops the paper's ideal-MAC assumption: broadcasts run under
// the slotted collision model (simultaneous transmissions destroy each
// other at common receivers; forwarders jitter within a contention
// window). Delivery ratio versus density shows the storm collapse of
// flooding and the backbones' resilience. ABL-COLLISION.
func Collision(degrees []float64, n, jitterWindow int, seed uint64, rule stats.StopRule) *Figure {
	mk := func(name string, run func(nw *topology.Network, cl *cluster.Clustering, src int, opt broadcast.MACOptions) *broadcast.CollisionResult) Series {
		s := Series{Name: name, Points: make([]Point, len(degrees))}
		ForEachPoint(len(degrees), func(i int) {
			deg := degrees[i]
			sc := DefaultScenario(n, deg, seed)
			sc.Rule = rule
			sum, err := stats.Replicate(sc.Rule, func(rep int) (float64, bool) {
				nw, cl, r, ok := clusteredSample(sc, fmt.Sprintf("collision-%g", deg), rep)
				if !ok {
					return 0, false
				}
				opt := broadcast.MACOptions{Jitter: jitterWindow, Seed: sc.Seed ^ uint64(rep)}
				res := run(nw, cl, r.source(nw.N()), opt)
				return res.DeliveryRatio(nw.N()), true
			})
			if err != nil {
				s.Points[i] = Point{X: deg}
				return
			}
			s.Points[i] = Point{X: deg, Mean: sum.Mean(), CI: sum.CI(0.99), Reps: sum.N()}
		})
		return s
	}
	return &Figure{
		ID:     "collision",
		Title:  fmt.Sprintf("Delivery under MAC collisions (n=%d, jitter window %d)", n, jitterWindow),
		XLabel: "avg degree", YLabel: "delivery ratio",
		Series: []Series{
			mk("flooding", func(nw *topology.Network, cl *cluster.Clustering, src int, opt broadcast.MACOptions) *broadcast.CollisionResult {
				return broadcast.RunMAC(nw.G, src, broadcast.Flooding{}, opt)
			}),
			mk("static-2.5hop", func(nw *topology.Network, cl *cluster.Clustering, src int, opt broadcast.MACOptions) *broadcast.CollisionResult {
				s := backbone.BuildStatic(nw.G, cl, coverage.Hop25)
				return broadcast.RunMAC(nw.G, src, broadcast.StaticCDS{Set: s.Nodes}, opt)
			}),
			mk("dynamic-2.5hop", func(nw *topology.Network, cl *cluster.Clustering, src int, opt broadcast.MACOptions) *broadcast.CollisionResult {
				return broadcast.RunMAC(nw.G, src, dynamicb.New(nw.G, cl, coverage.Hop25), opt)
			}),
		},
	}
}

// Election compares the clusterhead election rule feeding the backbone:
// the paper's lowest-ID algorithm versus highest-connectivity (degree)
// clustering. Fewer, larger clusters shrink the backbone but concentrate
// load and churn under mobility. ABL-ELECTION.
func Election(ns []int, d float64, seed uint64, rule stats.StopRule) *Figure {
	size := func(elect func(*topology.Network) *cluster.Clustering, what string) Estimator {
		return func(sc Scenario, rep int) (float64, bool) {
			nw, _, ok := sc.Sample("election", rep)
			if !ok {
				return 0, false
			}
			cl := elect(nw)
			if what == "heads" {
				return float64(cl.NumClusters()), true
			}
			b := coverage.NewBuilder(nw.G, cl, coverage.Hop25)
			return float64(backbone.BuildStaticFrom(b, cl).Size()), true
		}
	}
	lowest := func(nw *topology.Network) *cluster.Clustering { return cluster.LowestID(nw.G) }
	degree := func(nw *topology.Network) *cluster.Clustering { return cluster.HighestDegree(nw.G) }
	return &Figure{
		ID:     "election",
		Title:  fmt.Sprintf("Lowest-ID vs highest-degree clusterhead election (d=%g)", d),
		XLabel: "n", YLabel: "count",
		Series: []Series{
			sweep("lowestid-heads", ns, d, seed, rule, size(lowest, "heads")),
			sweep("highestdeg-heads", ns, d, seed, rule, size(degree, "heads")),
			sweep("lowestid-backbone", ns, d, seed, rule, size(lowest, "backbone")),
			sweep("highestdeg-backbone", ns, d, seed, rule, size(degree, "backbone")),
		},
	}
}

// CoverageCost quantifies the paper's stated reason for preferring the
// 2.5-hop coverage set: "the cost of maintaining the 2.5-hop coverage set
// is lower than that of the 3-hop coverage set" (§1, §5). The proxy
// measured here is exactly the state the CH_HOP2 exchange must carry and
// keep fresh: total 2-hop clusterhead entries across all non-clusterheads,
// plus the average coverage-set size per clusterhead. ABL-COVERAGE.
func CoverageCost(ns []int, d float64, seed uint64, rule stats.StopRule) *Figure {
	entries := func(mode coverage.Mode) Estimator {
		return func(sc Scenario, rep int) (float64, bool) {
			nw, cl, _, ok := clusteredSample(sc, "covcost", rep)
			if !ok {
				return 0, false
			}
			b := coverage.NewBuilder(nw.G, cl, mode)
			total := 0
			for v := 0; v < nw.N(); v++ {
				if !cl.IsHead(v) {
					total += len(b.CH2(v))
				}
			}
			return float64(total), true
		}
	}
	covSize := func(mode coverage.Mode) Estimator {
		return func(sc Scenario, rep int) (float64, bool) {
			nw, cl, _, ok := clusteredSample(sc, "covcost", rep)
			if !ok {
				return 0, false
			}
			b := coverage.NewBuilder(nw.G, cl, mode)
			total := 0
			for _, h := range cl.Heads {
				total += b.Of(h).Size()
			}
			return float64(total) / float64(len(cl.Heads)), true
		}
	}
	return &Figure{
		ID:     "covcost",
		Title:  fmt.Sprintf("Coverage-set maintenance cost, 2.5-hop vs 3-hop (d=%g)", d),
		XLabel: "n", YLabel: "CH_HOP2 entries / avg |C(u)|",
		Series: []Series{
			sweep("ch2-entries-2.5hop", ns, d, seed, rule, entries(coverage.Hop25)),
			sweep("ch2-entries-3hop", ns, d, seed, rule, entries(coverage.Hop3)),
			sweep("coverage-size-2.5hop", ns, d, seed, rule, covSize(coverage.Hop25)),
			sweep("coverage-size-3hop", ns, d, seed, rule, covSize(coverage.Hop3)),
		},
	}
}

// Amortized settles the conclusion's argument ("maintaining a static
// backbone at all times for broadcasting is costly and unnecessary") with
// total message counts: construction traffic (from the wire-protocol
// simulator) plus per-broadcast forwarding, as a function of how many
// broadcasts k the structure serves before the topology changes. The
// static backbone pays GATEWAY designation traffic up front for a larger
// forward set; the dynamic backbone skips GATEWAY messages and forwards
// less per broadcast — so it wins at every k, and the gap widens.
// Flooding pays nothing up front and n per broadcast. ABL-AMORT.
func Amortized(ks []int, n int, d float64, seed uint64, rule stats.StopRule) *Figure {
	type costs struct {
		staticSetup, dynSetup   float64
		staticFwd, dynFwd, nAll float64
	}
	measure := func(sc Scenario, rep int) (costs, bool) {
		nw, cl, r, ok := clusteredSample(sc, "amort", rep)
		if !ok {
			return costs{}, false
		}
		out := sim.Run(nw.G, coverage.Hop25)
		gateway := out.Counters.PerType[sim.Gateway]
		src := r.source(nw.N())
		st := backbone.BuildStatic(nw.G, cl, coverage.Hop25)
		sres := broadcast.Run(nw.G, src, broadcast.StaticCDS{Set: st.Nodes})
		dres := dynamicb.New(nw.G, cl, coverage.Hop25).Broadcast(src)
		return costs{
			staticSetup: float64(out.Counters.Total()),
			dynSetup:    float64(out.Counters.Total() - gateway),
			staticFwd:   float64(sres.ForwardCount()),
			dynFwd:      float64(dres.ForwardCount()),
			nAll:        float64(nw.N()),
		}, true
	}
	mk := func(name string, total func(c costs, k int) float64) Series {
		s := Series{Name: name, Points: make([]Point, len(ks))}
		ForEachPoint(len(ks), func(i int) {
			k := ks[i]
			sc := DefaultScenario(n, d, seed)
			sc.Rule = rule
			sum, err := stats.Replicate(sc.Rule, func(rep int) (float64, bool) {
				c, ok := measure(sc, rep)
				if !ok {
					return 0, false
				}
				return total(c, k), true
			})
			if err != nil {
				s.Points[i] = Point{X: float64(k)}
				return
			}
			s.Points[i] = Point{X: float64(k), Mean: sum.Mean(), CI: sum.CI(0.99), Reps: sum.N()}
		})
		return s
	}
	return &Figure{
		ID:     "amort",
		Title:  fmt.Sprintf("Total messages for k broadcasts (n=%d, d=%g)", n, d),
		XLabel: "broadcasts k", YLabel: "messages (setup + forwarding)",
		Series: []Series{
			mk("flooding", func(c costs, k int) float64 { return float64(k) * c.nAll }),
			mk("static-backbone", func(c costs, k int) float64 { return c.staticSetup + float64(k)*c.staticFwd }),
			mk("dynamic-backbone", func(c costs, k int) float64 { return c.dynSetup + float64(k)*c.dynFwd }),
		},
	}
}
