package experiment

import (
	"fmt"

	"clustercast/internal/backbone"
	"clustercast/internal/broadcast"
	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/dynamicb"
	"clustercast/internal/faults"
	"clustercast/internal/fwdtree"
	"clustercast/internal/marking"
	"clustercast/internal/mocds"
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
			sweep("marking-rules12", ns, d, seed, rule, func(sc Scenario, rep int) (float64, bool) {
				nw, _, ok := sc.Sample("sicds-marking", rep)
				if !ok {
					return 0, false
				}
				return float64(len(marking.Build(nw.G))), true
			}),
			sweep("fwd-tree", ns, d, seed, rule, func(sc Scenario, rep int) (float64, bool) {
				nw, cl, r, ok := clusteredSample(sc, "sicds-tree", rep)
				if !ok {
					return 0, false
				}
				b := coverage.NewBuilder(nw.G, cl, coverage.Hop25)
				tree, err := fwdtree.Build(b, cl, r.source(nw.N()))
				if err != nil {
					return 0, false
				}
				return float64(tree.Size()), true
			}),
		},
	}
}

// Lossy measures the redundancy/reliability trade-off the paper's ideal
// MAC assumption hides: delivery ratio under per-link loss for flooding
// (maximal redundancy), the static backbone, the dynamic backbone and the
// MO_CDS. ABL-LOSSY. The sweep is over the loss probability.
//
// With SetBatchReplication on, the flooding, static-backbone and MO_CDS
// series run on the 64-wide bit-parallel engine (i.i.d. loss expressed as
// a transition-free Gilbert–Elliott spec, lane-indexed coins); the
// dynamic backbone has no batch kernel and always takes the scalar path.
func Lossy(losses []float64, n int, d float64, seed uint64, rule stats.StopRule) *Figure {
	workers := Parallelism()
	mk := func(name string, kernel BatchKernel, runOne func(nw *topology.Network, cl *cluster.Clustering, src int, opt broadcast.Options) *broadcast.Result) Series {
		s := Series{Name: name, Points: make([]Point, len(losses))}
		forEachPoint(len(losses), workers, func(i int) {
			loss := losses[i]
			sc := DefaultScenario(n, d, seed)
			sc.Rule = rule
			iid := faults.Spec{LossGood: loss}
			if kernel != nil && useBatch(iid) {
				spec := func(batch int) faults.Spec {
					return faults.Spec{LossGood: loss, Seed: batchSeed(sc.Seed, batch)}
				}
				s.Points[i] = BatchSweepPoint(sc, workers, loss, fmt.Sprintf("lossy-%s-%g", name, loss), spec, kernel)
				return
			}
			sum, err := stats.Replicate(sc.Rule, func(rep int) (float64, bool) {
				nw, cl, r, ok := clusteredSample(sc, fmt.Sprintf("lossy-%s-%g", name, loss), rep)
				if !ok {
					return 0, false
				}
				opt := broadcast.Options{Loss: loss, Seed: sc.Seed ^ uint64(rep)}
				res := runOne(nw, cl, r.source(nw.N()), opt)
				return res.DeliveryRatio(nw.N()), true
			})
			if err != nil {
				s.Points[i] = Point{X: loss}
				return
			}
			s.Points[i] = Point{X: loss, Mean: sum.Mean(), CI: sum.CI(0.99), Reps: sum.N()}
		})
		return s
	}
	return &Figure{
		ID:     "lossy",
		Title:  fmt.Sprintf("Delivery ratio under per-link loss (n=%d, d=%g)", n, d),
		XLabel: "loss probability", YLabel: "delivery ratio",
		Series: []Series{
			mk("flooding", floodingKernel, func(nw *topology.Network, cl *cluster.Clustering, src int, opt broadcast.Options) *broadcast.Result {
				return broadcast.RunOpts(nw.G, src, broadcast.Flooding{}, opt)
			}),
			mk("static-2.5hop", staticCDSKernel, func(nw *topology.Network, cl *cluster.Clustering, src int, opt broadcast.Options) *broadcast.Result {
				s := backbone.BuildStatic(nw.G, cl, coverage.Hop25)
				return broadcast.RunOpts(nw.G, src, broadcast.StaticCDS{Set: s.Nodes}, opt)
			}),
			mk("dynamic-2.5hop", nil, func(nw *topology.Network, cl *cluster.Clustering, src int, opt broadcast.Options) *broadcast.Result {
				return broadcast.RunOpts(nw.G, src, dynamicb.New(nw.G, cl, coverage.Hop25), opt)
			}),
			mk("mo-cds", mocdsKernel, func(nw *topology.Network, cl *cluster.Clustering, src int, opt broadcast.Options) *broadcast.Result {
				c := mocds.Build(nw.G, cl)
				return broadcast.RunOpts(nw.G, src, broadcast.StaticCDS{Set: c.Nodes}, opt)
			}),
		},
	}
}

// Maintenance compares maintenance strategies for the proactive backbone
// under random-waypoint motion: full re-election every step versus
// least-cluster-change incremental repair. ABL-MAINT. The sweep is over
// the maximum node speed; the metric is head-assignment changes per step.
func Maintenance(speeds []float64, n int, d float64, steps int, seed uint64, rule stats.StopRule) *Figure {
	churn := func(useLCC bool) func(speed float64) Estimator {
		return func(speed float64) Estimator {
			return func(sc Scenario, rep int) (float64, bool) {
				nw, _, ok := sc.Sample(fmt.Sprintf("maint-%g", speed), rep)
				if !ok {
					return 0, false
				}
				mob := topology.NewRandomWaypoint(nw.Positions, sc.Bounds, speed/2, speed, 0,
					rng.NewLabeled(sc.Seed^uint64(rep), "maint-waypoint"))
				prev := cluster.LowestID(nw.G)
				// Incremental edge maintenance (see ablations.go Mobility).
				dyn := topology.NewDynamic(nw)
				total := 0
				for step := 0; step < steps; step++ {
					cur := dyn.Step(mob.Step(1))
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
	}
	mk := func(name string, est func(speed float64) Estimator) Series {
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
		ID:     "maint",
		Title:  fmt.Sprintf("Cluster maintenance churn: re-election vs LCC (n=%d, d=%g)", n, d),
		XLabel: "max speed", YLabel: "head changes per step",
		Series: []Series{
			mk("full-reelection", churn(false)),
			mk("lcc-incremental", churn(true)),
		},
	}
}

// PassiveConvergence shows how passive clustering converges across
// successive floods: forwarders per flood index, against the flooding and
// dynamic-backbone baselines. ABL-PASSIVE. The sweep is over the flood
// index (1-based).
func PassiveConvergence(floods int, n int, d float64, seed uint64, rule stats.StopRule) *Figure {
	idx := make([]int, floods)
	for i := range idx {
		idx[i] = i + 1
	}
	passiveSeries := Series{Name: "passive-clustering", Points: make([]Point, floods)}
	sums := make([]*stats.Summary, floods)
	for i := range sums {
		sums[i] = &stats.Summary{}
	}
	sc := DefaultScenario(n, d, seed)
	sc.Rule = rule
	// Replicate whole series (all floods share protocol state), so the
	// stopping rule is evaluated on the last flood's forward count.
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
	for i := range sums {
		p := Point{X: float64(idx[i])}
		if err == nil && sums[i].N() > 0 {
			p.Mean = sums[i].Mean()
			p.CI = sums[i].CI(0.99)
			p.Reps = sums[i].N()
		}
		passiveSeries.Points[i] = p
	}

	flat := func(name string, measure func(nw *topology.Network, cl *cluster.Clustering, src int) float64) Series {
		sc := DefaultScenario(n, d, seed)
		sc.Rule = rule
		sum, err := stats.Replicate(sc.Rule, func(rep int) (float64, bool) {
			nw, cl, r, ok := clusteredSample(sc, "passive-base-"+name, rep)
			if !ok {
				return 0, false
			}
			return measure(nw, cl, r.source(n)), true
		})
		s := Series{Name: name, Points: make([]Point, floods)}
		for i := range s.Points {
			p := Point{X: float64(idx[i])}
			if err == nil {
				p.Mean = sum.Mean()
				p.CI = sum.CI(0.99)
				p.Reps = sum.N()
			}
			s.Points[i] = p
		}
		return s
	}
	return &Figure{
		ID:     "passive",
		Title:  fmt.Sprintf("Passive clustering convergence across floods (n=%d, d=%g)", n, d),
		XLabel: "flood #", YLabel: "forward nodes",
		Series: []Series{
			passiveSeries,
			flat("flooding", func(nw *topology.Network, cl *cluster.Clustering, src int) float64 {
				return float64(broadcast.Run(nw.G, src, broadcast.Flooding{}).ForwardCount())
			}),
			flat("dynamic-2.5hop", func(nw *topology.Network, cl *cluster.Clustering, src int) float64 {
				return float64(dynamicb.New(nw.G, cl, coverage.Hop25).Broadcast(src).ForwardCount())
			}),
		},
	}
}

// Reliable measures the cost of *guaranteed* delivery over the
// Pagani–Rossi forwarding tree as the radio gets lossier: data
// transmissions and acknowledgements per fully-delivered broadcast,
// against the (non-guaranteed) delivery ratio flooding achieves at the
// same loss rate. ABL-RELIABLE. The sweep is over the loss probability.
func Reliable(losses []float64, n int, d float64, seed uint64, rule stats.StopRule) *Figure {
	mk := func(name string, measure func(nw *topology.Network, tree *fwdtree.Tree, src int, loss float64, rep uint64) (float64, bool)) Series {
		s := Series{Name: name, Points: make([]Point, len(losses))}
		ForEachPoint(len(losses), func(i int) {
			loss := losses[i]
			sc := DefaultScenario(n, d, seed)
			sc.Rule = rule
			sum, err := stats.Replicate(sc.Rule, func(rep int) (float64, bool) {
				nw, cl, r, ok := clusteredSample(sc, fmt.Sprintf("reliable-%g", loss), rep)
				if !ok {
					return 0, false
				}
				src := r.source(nw.N())
				b := coverage.NewBuilder(nw.G, cl, coverage.Hop25)
				tree, err := fwdtree.Build(b, cl, src)
				if err != nil {
					return 0, false
				}
				return measure(nw, tree, src, loss, sc.Seed^uint64(rep))
			})
			if err != nil {
				s.Points[i] = Point{X: loss}
				return
			}
			s.Points[i] = Point{X: loss, Mean: sum.Mean(), CI: sum.CI(0.99), Reps: sum.N()}
		})
		return s
	}
	return &Figure{
		ID:     "reliable",
		Title:  fmt.Sprintf("Reliable tree broadcast cost under loss (n=%d, d=%g)", n, d),
		XLabel: "loss probability", YLabel: "messages per broadcast",
		Series: []Series{
			mk("tree-data-transmissions", func(nw *topology.Network, tree *fwdtree.Tree, src int, loss float64, rep uint64) (float64, bool) {
				res, err := reliable.Run(nw.G, tree, src, reliable.Config{Loss: loss, Seed: rep})
				if err != nil || !res.Delivered {
					return 0, false
				}
				return float64(res.Transmissions), true
			}),
			mk("tree-acks", func(nw *topology.Network, tree *fwdtree.Tree, src int, loss float64, rep uint64) (float64, bool) {
				res, err := reliable.Run(nw.G, tree, src, reliable.Config{Loss: loss, Seed: rep})
				if err != nil || !res.Delivered {
					return 0, false
				}
				return float64(res.Acks), true
			}),
			mk("flooding-delivery-pct", func(nw *topology.Network, tree *fwdtree.Tree, src int, loss float64, rep uint64) (float64, bool) {
				res := broadcast.RunOpts(nw.G, src, broadcast.Flooding{}, broadcast.Options{Loss: loss, Seed: rep})
				return 100 * res.DeliveryRatio(nw.N()), true
			}),
		},
	}
}
