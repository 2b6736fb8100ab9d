package experiment

import (
	"fmt"

	"clustercast/internal/broadcast"
	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/fwdtree"
	"clustercast/internal/marking"
	"clustercast/internal/passive"
	"clustercast/internal/reliable"
	"clustercast/internal/rng"
	"clustercast/internal/stats"
	"clustercast/internal/topology"
)

// SICDS compares every source-independent CDS construction in the
// repository: the paper's static backbone, the MO_CDS baseline, the Wu–Li
// marking process with Rules 1&2, and the Pagani–Rossi forwarding tree
// (rooted at a random source's cluster). ABL-SICDS.
func SICDS(ns []int, d float64, seed uint64, rule stats.StopRule) *Figure {
	return &Figure{
		ID:     "sicds",
		Title:  fmt.Sprintf("Size of source-independent CDS constructions (d=%g)", d),
		XLabel: "n", YLabel: "CDS size",
		Series: []Series{
			sweepWS("static-2.5hop", ns, d, seed, rule, StaticSizeEstimatorWS(coverage.Hop25)),
			sweepWS("mo-cds", ns, d, seed, rule, MOCDSSizeEstimatorWS()),
			sweepWS("marking-rules12", ns, d, seed, rule, single(sampledWS("sicds-marking"),
				func(_ *Workspace, _ Scenario, d draw) (float64, bool) {
					return float64(marking.Build(d.nw.G).Count()), true
				})),
			sweepWS("fwd-tree", ns, d, seed, rule, single(forwardingTree("sicds-tree"),
				func(_ *Workspace, _ Scenario, t tree) (float64, bool) { return float64(t.Size()), true })),
		},
	}
}

// tree is a replicate's draw plus the Pagani–Rossi forwarding tree rooted
// at its source.
type tree struct {
	draw
	*fwdtree.Tree
}

// forwardingTree is the prefix of the tree-based series: the draw sampled
// under label and the forwarding tree from its source over the 2.5-hop
// coverage sets. A replicate whose tree cannot be built is skipped.
func forwardingTree(label string) prefix[tree] {
	return derived(label, func(_ *Workspace, _ Scenario, d draw) (tree, bool) {
		t, err := fwdtree.Build(coverage.NewBuilder(d.nw.G, d.cl, coverage.Hop25), d.cl, d.src)
		return tree{d, t}, err == nil
	})
}

// Lossy measures the redundancy/reliability trade-off the paper's ideal
// MAC assumption hides: delivery ratio under per-link loss for flooding
// (maximal redundancy), the static backbone, the dynamic backbone and the
// MO_CDS. ABL-LOSSY. The sweep is over the loss probability.
func Lossy(losses []float64, n int, d float64, seed uint64, rule stats.StopRule) *Figure {
	pts := along(losses, n, d, seed, rule)
	mk := func(name string, proto func(d draw) broadcast.Protocol) Series {
		return sweepAxis([]string{name}, pts, 1, func(loss float64) groupEstimator {
			return shared(sampledWS(fmt.Sprintf("lossy-%s-%g", name, loss)),
				func(_ *Workspace, sc Scenario, d draw) (float64, bool) {
					opt := broadcast.Options{Loss: loss, Seed: sc.Seed ^ uint64(d.rep)}
					return broadcast.RunOpts(d.nw.G, d.src, proto(d), opt).DeliveryRatio(d.nw.N()), true
				})
		})[0]
	}
	return &Figure{
		ID:     "lossy",
		Title:  fmt.Sprintf("Delivery ratio under per-link loss (n=%d, d=%g)", n, d),
		XLabel: "loss probability", YLabel: "delivery ratio",
		Series: []Series{
			mk("flooding", floodingProto),
			mk("static-2.5hop", staticProto),
			mk("dynamic-2.5hop", dynamicProto),
			mk("mo-cds", mocdsProto),
		},
	}
}

// Maintenance compares maintenance strategies for the proactive backbone
// under random-waypoint motion: full re-election every step versus
// least-cluster-change incremental repair. ABL-MAINT. The sweep is over
// the maximum node speed; the metric is head-assignment changes per step.
// Both strategies start from the same replicate's network, each under its
// own motion run (their clusterings diverge from the first step).
func Maintenance(speeds []float64, n int, d float64, steps int, seed uint64, rule stats.StopRule) *Figure {
	churn := func(speed float64, useLCC bool) member[draw] {
		return func(_ *Workspace, sc Scenario, d draw) (float64, bool) {
			mob := topology.NewRandomWaypoint(d.nw.Positions, sc.Bounds, speed/2, speed, 0,
				rng.NewLabeled(sc.Seed^uint64(d.rep), "maint-waypoint"))
			prev := cluster.LowestID(d.nw.G)
			total := 0
			// Every step rebuilds into one workspace of the replicate's own:
			// the draw's workspace holds d.nw, which the group shares.
			var tw topology.Workspace
			for step := 0; step < steps; step++ {
				cur := tw.FromPositions(mob.Step(1), sc.Bounds, d.nw.Radius)
				var next *cluster.Clustering
				if useLCC {
					next, _ = cluster.Maintain(cur.G, prev)
				} else {
					next = cluster.LowestID(cur.G)
				}
				for v := 0; v < sc.N; v++ {
					if next.Head[v] != prev.Head[v] {
						total++
					}
				}
				prev = next
			}
			return float64(total) / float64(steps), true
		}
	}
	return &Figure{
		ID:     "maint",
		Title:  fmt.Sprintf("Cluster maintenance churn: re-election vs LCC (n=%d, d=%g)", n, d),
		XLabel: "max speed", YLabel: "head changes per step",
		Series: sweepAxis([]string{"full-reelection", "lcc-incremental"}, along(speeds, n, d, seed, rule), 1,
			func(speed float64) groupEstimator {
				return shared(sampledWS(fmt.Sprintf("maint-%g", speed)), churn(speed, false), churn(speed, true))
			}),
	}
}

// PassiveConvergence shows how passive clustering converges across
// successive floods: forwarders per flood index, against the flooding and
// dynamic-backbone baselines. ABL-PASSIVE. The sweep is over the flood
// index (1-based).
func PassiveConvergence(floods int, n int, d float64, seed uint64, rule stats.StopRule) *Figure {
	idx := make([]float64, floods)
	for i := range idx {
		idx[i] = float64(i + 1)
	}
	sc := DefaultScenario(n, d, seed)
	sc.Rule = rule
	// Replicate whole series (all floods share protocol state), so the
	// stopping rule is evaluated on the last flood's forward count. This
	// loop stays outside the group sweep: its rule reads only the last
	// flood while every flood folds each replicate, which no group member
	// can express (a member folds exactly what its own rule asks for).
	sums := make([]stats.Summary, floods)
	_, err := stats.Replicate(sc.Rule, func(rep int) (float64, bool) {
		nw, r, ok := sc.Sample("passive", rep)
		if !ok {
			return 0, false
		}
		sources := make([]int, floods)
		for i := range sources {
			sources[i] = r.Intn(n)
		}
		series := passive.RunSeries(nw.G, sources)
		for i, res := range series {
			sums[i].Add(float64(res.ForwardCount()))
		}
		return float64(series[floods-1].ForwardCount()), true
	})
	passiveSeries := Series{Name: "passive-clustering", Points: make([]Point, floods)}
	for i := range sums {
		passiveSeries.Points[i] = measured(idx[i], &sums[i], err)
	}

	// The baselines do not depend on the flood index: flat reference lines.
	base := func(name string, proto func(d draw) broadcast.Protocol) Series {
		return flat([]string{name}, idx, sc, shared(sampledWS("passive-base-"+name),
			func(_ *Workspace, _ Scenario, d draw) (float64, bool) {
				return float64(broadcast.Run(d.nw.G, d.src, proto(d)).ForwardCount()), true
			}))[0]
	}
	return &Figure{
		ID:     "passive",
		Title:  fmt.Sprintf("Passive clustering convergence across floods (n=%d, d=%g)", n, d),
		XLabel: "flood #", YLabel: "forward nodes",
		Series: []Series{passiveSeries, base("flooding", floodingProto), base("dynamic-2.5hop", dynamicProto)},
	}
}

// Reliable measures the cost of *guaranteed* delivery over the
// Pagani–Rossi forwarding tree as the radio gets lossier: data
// transmissions and acknowledgements per fully-delivered broadcast,
// against the (non-guaranteed) delivery ratio flooding achieves at the
// same loss rate. ABL-RELIABLE. The sweep is over the loss probability;
// the three series read the same replicate's forwarding tree.
func Reliable(losses []float64, n int, d float64, seed uint64, rule stats.StopRule) *Figure {
	deliver := func(loss float64, cost func(res *reliable.Result) int) member[tree] {
		return func(_ *Workspace, sc Scenario, t tree) (float64, bool) {
			res, err := reliable.Run(t.nw.G, t.Tree, t.src, reliable.Config{Loss: loss, Seed: sc.Seed ^ uint64(t.rep)})
			if err != nil || !res.Delivered {
				return 0, false
			}
			return float64(cost(res)), true
		}
	}
	return &Figure{
		ID:     "reliable",
		Title:  fmt.Sprintf("Reliable tree broadcast cost under loss (n=%d, d=%g)", n, d),
		XLabel: "loss probability", YLabel: "messages per broadcast",
		Series: sweepAxis([]string{"tree-data-transmissions", "tree-acks", "flooding-delivery-pct"},
			along(losses, n, d, seed, rule), 1, func(loss float64) groupEstimator {
				return shared(forwardingTree(fmt.Sprintf("reliable-%g", loss)),
					deliver(loss, func(res *reliable.Result) int { return res.Transmissions }),
					deliver(loss, func(res *reliable.Result) int { return res.Acks }),
					func(_ *Workspace, sc Scenario, t tree) (float64, bool) {
						opt := broadcast.Options{Loss: loss, Seed: sc.Seed ^ uint64(t.rep)}
						return 100 * broadcast.RunOpts(t.nw.G, t.src, broadcast.Flooding{}, opt).DeliveryRatio(t.nw.N()), true
					})
			}),
	}
}
