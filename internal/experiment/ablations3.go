package experiment

import (
	"fmt"

	"clustercast/internal/backbone"
	"clustercast/internal/broadcast"
	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/graph"
	"clustercast/internal/hier"
	"clustercast/internal/routing"
	"clustercast/internal/sim"
	"clustercast/internal/stats"
)

// Pruning reproduces the §3 trade-off between the two redundancy-pruning
// techniques the paper discusses: back-off self-pruning ("more delay
// time") versus piggybacked coverage pruning ("increase the message
// length", the dynamic backbone's choice). The sweep is over the back-off
// window; the piggyback series is flat since it takes no extra delay.
// Two series pairs are reported: forward nodes and latency, each pair
// read off one broadcast per replicate. ABL-PRUNING.
func Pruning(windows []int, n int, d float64, seed uint64, rule stats.StopRule) *Figure {
	forwards := func(_ *Workspace, _ Scenario, r *broadcast.Result) (float64, bool) {
		return float64(r.ForwardCount()), true
	}
	latency := func(_ *Workspace, _ Scenario, r *broadcast.Result) (float64, bool) {
		return float64(r.Latency), true
	}
	// sba is one back-off broadcast; a replicate that misses a node is
	// skipped.
	sba := func(window int) prefix[*broadcast.Result] {
		return derived(fmt.Sprintf("pruning-%d", window), func(_ *Workspace, sc Scenario, d draw) (*broadcast.Result, bool) {
			res := broadcast.RunTimed(d.nw.G, d.src, broadcast.NewSBA(d.nw.G, window, sc.Seed^uint64(d.rep)))
			return res, len(res.Received) == d.nw.N()
		})
	}
	piggyback := derived("pruning-dyn", func(_ *Workspace, _ Scenario, d draw) (*broadcast.Result, bool) {
		return broadcast.Run(d.nw.G, d.src, dynamicProto(d)), true
	})
	xs := floats(windows)
	sc := DefaultScenario(n, d, seed)
	sc.Rule = rule
	return &Figure{
		ID:     "pruning",
		Title:  fmt.Sprintf("Back-off vs piggyback pruning (n=%d, d=%g)", n, d),
		XLabel: "back-off window", YLabel: "forward nodes / latency",
		Series: append(
			sweepAxis([]string{"sba-forwards", "sba-latency"}, along(xs, n, d, seed, rule), 1, func(w float64) groupEstimator {
				return shared(sba(int(w)), forwards, latency)
			}),
			flat([]string{"piggyback-forwards", "piggyback-latency"}, xs, sc,
				shared(piggyback, forwards, latency))...),
	}
}

// Routing measures route discovery over the broadcast service (the
// application the paper's introduction motivates): RREQ transmissions and
// route stretch when the request is flooded blindly versus over the
// dynamic backbone. ABL-ROUTING. The four series discover routes between
// the same replicate's source and destination.
func Routing(ns []int, d float64, seed uint64, rule stats.StopRule) *Figure {
	type pair struct {
		draw
		dst int
	}
	// ends draws the source, then the destination, from the replicate's
	// split stream; a replicate whose two ends coincide is skipped.
	ends := func(ws *Workspace, sc Scenario, rep int) (pair, bool) {
		nw, r, ok := sc.SampleWS(ws, "routing", rep)
		if !ok {
			return pair{}, false
		}
		p := pair{draw{nw: nw, cl: ws.Elect(nw.G), src: r.Intn(nw.N()), rep: rep}, r.Intn(nw.N())}
		return p, p.src != p.dst
	}
	discover := func(proto func(d draw) broadcast.Protocol, metric func(*routing.Route, *graph.Graph) float64) member[pair] {
		return func(_ *Workspace, _ Scenario, p pair) (float64, bool) {
			route, err := routing.Discover(p.nw.G, p.src, p.dst, proto(p.draw))
			if err != nil {
				return 0, false
			}
			return metric(route, p.nw.G), true
		}
	}
	cost := func(r *routing.Route, _ *graph.Graph) float64 { return float64(r.RequestCost) }
	stretch := (*routing.Route).Stretch
	return &Figure{
		ID:     "routing",
		Title:  fmt.Sprintf("Route discovery over the broadcast service (d=%g)", d),
		XLabel: "n", YLabel: "RREQ transmissions / stretch",
		Series: sweepGroup([]string{"flooding-cost", "backbone-cost", "flooding-stretch", "backbone-stretch"},
			sizes(ns, d, seed, rule), shared(ends,
				discover(floodingProto, cost), discover(dynamicProto, cost),
				discover(floodingProto, stretch), discover(dynamicProto, stretch))),
	}
}

// Storm reproduces the broadcast storm analysis (Ni et al., the paper's
// [9]): redundant receptions per node versus density, for flooding and the
// backbones. ABL-STORM. The sweep is over the average degree at n=80; the
// five protocols broadcast from the same replicate's network and source.
// Every member builds its protocol from the draw alone, so the replicates
// run on the pool's workers.
func Storm(degrees []float64, n int, seed uint64, rule stats.StopRule) *Figure {
	redundancy := func(runOne func(d draw) *broadcast.Result) member[draw] {
		return func(_ *Workspace, _ Scenario, d draw) (float64, bool) { return runOne(d).Redundancy(), true }
	}
	return &Figure{
		ID:     "storm",
		Title:  fmt.Sprintf("Redundant receptions per node vs density (n=%d)", n),
		XLabel: "avg degree", YLabel: "redundant copies per node",
		Series: sweepAxis([]string{"flooding", "dynamic-2.5hop", "sba-w4", "counter-3", "distance-0.4r"},
			axis(degrees, rule, func(deg float64) Scenario { return DefaultScenario(n, deg, seed) }), 0,
			func(deg float64) groupEstimator {
				return shared(sampledWS(fmt.Sprintf("storm-%g", deg)),
					redundancy(func(d draw) *broadcast.Result { return broadcast.Run(d.nw.G, d.src, floodingProto(d)) }),
					redundancy(func(d draw) *broadcast.Result { return broadcast.Run(d.nw.G, d.src, dynamicProto(d)) }),
					redundancy(func(d draw) *broadcast.Result {
						return broadcast.RunTimed(d.nw.G, d.src, broadcast.NewSBA(d.nw.G, 4, 1))
					}),
					redundancy(func(d draw) *broadcast.Result {
						return broadcast.RunTimed(d.nw.G, d.src, broadcast.CounterBased{Threshold: 3, MaxDelay: 4, Seed: 1})
					}),
					redundancy(func(d draw) *broadcast.Result {
						return broadcast.RunTimed(d.nw.G, d.src, broadcast.DistanceBased{
							Positions: d.nw.Positions, MinDistance: d.nw.Radius * 0.4, MaxDelay: 4, Seed: 1,
						})
					}))
			}),
	}
}

// Hierarchy measures the repository's future-work extension: how many
// clusterheads survive at each level of the multi-level hierarchy as the
// network grows — geometric shrinkage is what makes hierarchical
// addressing scale. ABL-HIER. Every level reads the same replicate's
// hierarchy.
func Hierarchy(ns []int, d float64, levels int, seed uint64, rule stats.StopRule) *Figure {
	build := func(ws *Workspace, sc Scenario, rep int) (*hier.Hierarchy, bool) {
		nw, _, ok := sc.SampleWS(ws, "hier", rep)
		if !ok {
			return nil, false
		}
		h, err := hier.Build(nw.G, levels+1)
		return h, err == nil
	}
	var names []string
	var members []member[*hier.Hierarchy]
	for lvl := 0; lvl <= levels; lvl++ {
		names = append(names, fmt.Sprintf("level-%d-heads", lvl))
		members = append(members, func(_ *Workspace, _ Scenario, h *hier.Hierarchy) (float64, bool) {
			if lvl >= h.Depth() {
				return 1, true // fully collapsed: one head remains
			}
			return float64(len(h.HeadsAt(lvl))), true
		})
	}
	return &Figure{
		ID:     "hier",
		Title:  fmt.Sprintf("Clusterheads per hierarchy level (d=%g)", d),
		XLabel: "n", YLabel: "heads",
		Series: sweepGroup(names, sizes(ns, d, seed, rule), shared(build, members...)),
	}
}

// Collision drops the paper's ideal-MAC assumption: broadcasts run under
// the slotted collision model (simultaneous transmissions destroy each
// other at common receivers; forwarders jitter within a contention
// window). Delivery ratio versus density shows the storm collapse of
// flooding and the backbones' resilience. ABL-COLLISION. The three
// protocols broadcast from the same replicate's network, clustering and
// source, so they run as one group.
func Collision(degrees []float64, n, jitterWindow int, seed uint64, rule stats.StopRule) *Figure {
	mac := func(proto func(d draw) broadcast.Protocol) member[draw] {
		return func(_ *Workspace, sc Scenario, d draw) (float64, bool) {
			opt := broadcast.MACOptions{Jitter: jitterWindow, Seed: sc.Seed ^ uint64(d.rep)}
			return broadcast.RunMAC(d.nw.G, d.src, proto(d), opt).DeliveryRatio(d.nw.N()), true
		}
	}
	return &Figure{
		ID:     "collision",
		Title:  fmt.Sprintf("Delivery under MAC collisions (n=%d, jitter window %d)", n, jitterWindow),
		XLabel: "avg degree", YLabel: "delivery ratio",
		Series: sweepAxis([]string{"flooding", "static-2.5hop", "dynamic-2.5hop"},
			axis(degrees, rule, func(deg float64) Scenario { return DefaultScenario(n, deg, seed) }), 0,
			func(deg float64) groupEstimator {
				return shared(sampledWS(fmt.Sprintf("collision-%g", deg)), mac(floodingProto), mac(staticProto), mac(dynamicProto))
			}),
	}
}

// Election compares the clusterhead election rule feeding the backbone:
// the paper's lowest-ID algorithm versus highest-connectivity (degree)
// clustering. Fewer, larger clusters shrink the backbone but concentrate
// load and churn under mobility. ABL-ELECTION.
func Election(ns []int, d float64, seed uint64, rule stats.StopRule) *Figure {
	lowest := func(d draw) *cluster.Clustering { return d.cl }
	degree := func(d draw) *cluster.Clustering { return cluster.HighestDegree(d.nw.G) }
	heads := func(elect func(draw) *cluster.Clustering) member[draw] {
		return func(_ *Workspace, _ Scenario, d draw) (float64, bool) { return float64(elect(d).NumClusters()), true }
	}
	size := func(elect func(draw) *cluster.Clustering) member[draw] {
		return func(_ *Workspace, _ Scenario, d draw) (float64, bool) {
			cl := elect(d)
			return float64(backbone.BuildStaticFrom(coverage.NewBuilder(d.nw.G, cl, coverage.Hop25), cl).Size()), true
		}
	}
	return &Figure{
		ID:     "election",
		Title:  fmt.Sprintf("Lowest-ID vs highest-degree clusterhead election (d=%g)", d),
		XLabel: "n", YLabel: "count",
		Series: sweepGroup([]string{"lowestid-heads", "highestdeg-heads", "lowestid-backbone", "highestdeg-backbone"},
			sizes(ns, d, seed, rule), shared(sampledWS("election"), heads(lowest), heads(degree), size(lowest), size(degree))),
	}
}

// CoverageCost quantifies the paper's stated reason for preferring the
// 2.5-hop coverage set: "the cost of maintaining the 2.5-hop coverage set
// is lower than that of the 3-hop coverage set" (§1, §5). The proxy
// measured here is exactly the state the CH_HOP2 exchange must carry and
// keep fresh: total 2-hop clusterhead entries across all non-clusterheads,
// plus the average coverage-set size per clusterhead. ABL-COVERAGE.
func CoverageCost(ns []int, d float64, seed uint64, rule stats.StopRule) *Figure {
	entries := func(mode coverage.Mode) member[draw] {
		return func(ws *Workspace, _ Scenario, d draw) (float64, bool) {
			ws.Digest(d.nw.G, d.cl, mode)
			total := 0
			for v := 0; v < d.nw.N(); v++ {
				total += ws.Builder.CH2Count(v) // a clusterhead reports none
			}
			return float64(total), true
		}
	}
	covSize := func(mode coverage.Mode) member[draw] {
		return func(ws *Workspace, _ Scenario, d draw) (float64, bool) {
			ws.Digest(d.nw.G, d.cl, mode)
			var (
				cov coverage.Coverage
				asm coverage.AsmScratch
			)
			total := 0
			for _, h := range d.cl.Heads {
				total += ws.Builder.OfScratch(h, &cov, &asm).Size()
			}
			return float64(total) / float64(len(d.cl.Heads)), true
		}
	}
	return &Figure{
		ID:     "covcost",
		Title:  fmt.Sprintf("Coverage-set maintenance cost, 2.5-hop vs 3-hop (d=%g)", d),
		XLabel: "n", YLabel: "CH_HOP2 entries / avg |C(u)|",
		Series: sweepGroup([]string{"ch2-entries-2.5hop", "ch2-entries-3hop", "coverage-size-2.5hop", "coverage-size-3hop"},
			sizes(ns, d, seed, rule), shared(sampledWS("covcost"),
				entries(coverage.Hop25), entries(coverage.Hop3), covSize(coverage.Hop25), covSize(coverage.Hop3))),
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
// Flooding pays nothing up front and n per broadcast. ABL-AMORT. The three
// totals read one cost measurement per replicate.
func Amortized(ks []int, n int, d float64, seed uint64, rule stats.StopRule) *Figure {
	type costs struct {
		staticSetup, dynSetup   float64
		staticFwd, dynFwd, nAll float64
	}
	measure := derived("amort", func(_ *Workspace, _ Scenario, d draw) (costs, bool) {
		out := sim.Run(d.nw.G, coverage.Hop25)
		gateway := out.Counters.PerType[sim.Gateway]
		sres := broadcast.Run(d.nw.G, d.src, staticProto(d))
		dres := broadcast.Run(d.nw.G, d.src, dynamicProto(d))
		return costs{
			staticSetup: float64(out.Counters.Total()),
			dynSetup:    float64(out.Counters.Total() - gateway),
			staticFwd:   float64(sres.ForwardCount()),
			dynFwd:      float64(dres.ForwardCount()),
			nAll:        float64(d.nw.N()),
		}, true
	})
	total := func(k float64, f func(c costs, k float64) float64) member[costs] {
		return func(_ *Workspace, _ Scenario, c costs) (float64, bool) { return f(c, k), true }
	}
	return &Figure{
		ID:     "amort",
		Title:  fmt.Sprintf("Total messages for k broadcasts (n=%d, d=%g)", n, d),
		XLabel: "broadcasts k", YLabel: "messages (setup + forwarding)",
		Series: sweepAxis([]string{"flooding", "static-backbone", "dynamic-backbone"}, along(floats(ks), n, d, seed, rule), 1,
			func(k float64) groupEstimator {
				return shared(measure,
					total(k, func(c costs, k float64) float64 { return k * c.nAll }),
					total(k, func(c costs, k float64) float64 { return c.staticSetup + k*c.staticFwd }),
					total(k, func(c costs, k float64) float64 { return c.dynSetup + k*c.dynFwd }))
			}),
	}
}
