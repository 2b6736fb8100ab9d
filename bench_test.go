// Benchmarks: one per paper table/figure plus the ablations DESIGN.md
// calls out. Each benchmark regenerates the figure's measurement at a
// representative operating point (n=100, both paper densities) and reports
// the measured quantity as a custom metric, so `go test -bench=.`
// doubles as a smoke reproduction:
//
//	BenchmarkFig6 — average CDS size (static 2.5/3-hop vs MO_CDS)
//	BenchmarkFig7 — forward-node set (dynamic vs MO_CDS)
//	BenchmarkFig8 — forward-node set (static vs dynamic)
//	BenchmarkApproxRatio / BenchmarkMessageComplexity /
//	BenchmarkBaselines / BenchmarkTieBreak / BenchmarkMobility — ablations
//
// The full replicated sweeps (99% CI within ±5%, n = 20..100) are produced
// by `go run ./cmd/figures`.
package clustercast_test

import (
	"fmt"
	"testing"

	"clustercast/internal/backbone"
	"clustercast/internal/broadcast"
	"clustercast/internal/cluster"
	"clustercast/internal/core"
	"clustercast/internal/coverage"
	"clustercast/internal/experiment"
	"clustercast/internal/fwdtree"
	"clustercast/internal/geom"
	"clustercast/internal/graph"
	"clustercast/internal/hier"
	"clustercast/internal/marking"
	"clustercast/internal/mcds"
	"clustercast/internal/mocds"
	"clustercast/internal/passive"
	"clustercast/internal/reliable"
	"clustercast/internal/rng"
	"clustercast/internal/routing"
	"clustercast/internal/sim"
	"clustercast/internal/topology"
	"clustercast/internal/workload"
)

// sample draws the i-th replicate network for a bench scenario.
func sample(b *testing.B, n int, d float64, i int) *core.Network {
	b.Helper()
	nw, err := core.NewRandomNetwork(core.NetworkSpec{
		N: n, AvgDegree: d, Seed: uint64(i)*0x9E3779B97F4A7C15 + uint64(d),
	})
	if err != nil {
		b.Fatal(err)
	}
	return nw
}

// BenchmarkFig6 regenerates Figure 6's measurement: the average CDS size
// of the static backbone (2.5-hop, 3-hop) and the MO_CDS at n=100.
func BenchmarkFig6(b *testing.B) {
	for _, d := range []float64{6, 18} {
		for _, alg := range []string{"static-2.5hop", "static-3hop", "mo-cds"} {
			b.Run(fmt.Sprintf("d=%g/%s", d, alg), func(b *testing.B) {
				total := 0
				for i := 0; i < b.N; i++ {
					nw := sample(b, 100, d, i)
					switch alg {
					case "static-2.5hop":
						total += nw.StaticBackbone(core.Hop25).Size()
					case "static-3hop":
						total += nw.StaticBackbone(core.Hop3).Size()
					case "mo-cds":
						total += nw.MOCDS().Size()
					}
				}
				b.ReportMetric(float64(total)/float64(b.N), "cds-size")
			})
		}
	}
}

// BenchmarkFig7 regenerates Figure 7's measurement: the forward-node-set
// size of a dynamic-backbone broadcast vs a broadcast over the MO_CDS.
func BenchmarkFig7(b *testing.B) {
	for _, d := range []float64{6, 18} {
		for _, alg := range []string{"dynamic-2.5hop", "dynamic-3hop", "mo-cds"} {
			b.Run(fmt.Sprintf("d=%g/%s", d, alg), func(b *testing.B) {
				src := rng.NewLabeled(7, "fig7")
				total := 0
				for i := 0; i < b.N; i++ {
					nw := sample(b, 100, d, i)
					s := src.Intn(nw.N())
					switch alg {
					case "dynamic-2.5hop":
						total += nw.DynamicBroadcast(core.Hop25, s).ForwardCount()
					case "dynamic-3hop":
						total += nw.DynamicBroadcast(core.Hop3, s).ForwardCount()
					case "mo-cds":
						total += nw.BroadcastMOCDS(nw.MOCDS(), s).ForwardCount()
					}
				}
				b.ReportMetric(float64(total)/float64(b.N), "fwd-nodes")
			})
		}
	}
}

// BenchmarkFig8 regenerates Figure 8's measurement: forward nodes of the
// static vs the dynamic backbone.
func BenchmarkFig8(b *testing.B) {
	for _, d := range []float64{6, 18} {
		for _, alg := range []string{"static-2.5hop", "static-3hop", "dynamic-2.5hop", "dynamic-3hop"} {
			b.Run(fmt.Sprintf("d=%g/%s", d, alg), func(b *testing.B) {
				src := rng.NewLabeled(8, "fig8")
				total := 0
				for i := 0; i < b.N; i++ {
					nw := sample(b, 100, d, i)
					s := src.Intn(nw.N())
					switch alg {
					case "static-2.5hop":
						total += nw.BroadcastStatic(nw.StaticBackbone(core.Hop25), s).ForwardCount()
					case "static-3hop":
						total += nw.BroadcastStatic(nw.StaticBackbone(core.Hop3), s).ForwardCount()
					case "dynamic-2.5hop":
						total += nw.DynamicBroadcast(core.Hop25, s).ForwardCount()
					case "dynamic-3hop":
						total += nw.DynamicBroadcast(core.Hop3, s).ForwardCount()
					}
				}
				b.ReportMetric(float64(total)/float64(b.N), "fwd-nodes")
			})
		}
	}
}

// BenchmarkApproxRatio regenerates ABL-RATIO: the empirical approximation
// ratio to the exact MCDS on small networks.
func BenchmarkApproxRatio(b *testing.B) {
	for _, alg := range []string{"static-2.5hop", "mo-cds", "greedy-gk"} {
		b.Run(alg, func(b *testing.B) {
			sum, count := 0.0, 0
			for i := 0; i < b.N; i++ {
				nw := sample(b, 16, 5, i)
				opt := mcds.Exact(nw.Graph())
				if len(opt) == 0 {
					continue
				}
				var size int
				switch alg {
				case "static-2.5hop":
					size = nw.StaticBackbone(core.Hop25).Size()
				case "mo-cds":
					size = nw.MOCDS().Size()
				case "greedy-gk":
					size = len(mcds.Greedy(nw.Graph()))
				}
				sum += float64(size) / float64(len(opt))
				count++
			}
			if count > 0 {
				b.ReportMetric(sum/float64(count), "ratio")
			}
		})
	}
}

// BenchmarkMessageComplexity regenerates ABL-MSG: distributed construction
// messages per node across sizes (flat ⇒ O(n) total, the paper's
// message-optimality claim).
func BenchmarkMessageComplexity(b *testing.B) {
	for _, n := range []int{20, 50, 100, 200} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				nw := sample(b, n, 6, i)
				total += sim.Run(nw.Graph(), coverage.Hop25).Counters.Total()
			}
			b.ReportMetric(float64(total)/float64(b.N)/float64(n), "msgs/node")
		})
	}
}

// BenchmarkBaselines regenerates ABL-BASELINES: forward nodes across the
// related-work protocols at n=100, d=18.
func BenchmarkBaselines(b *testing.B) {
	protocols := []string{"flooding", "mpr", "dp", "pdp", "dynamic-2.5hop"}
	for _, name := range protocols {
		b.Run(name, func(b *testing.B) {
			src := rng.NewLabeled(9, "baselines")
			total := 0
			for i := 0; i < b.N; i++ {
				nw := sample(b, 100, 18, i)
				s := src.Intn(nw.N())
				var p broadcast.Protocol
				switch name {
				case "flooding":
					p = broadcast.Flooding{}
				case "mpr":
					p = broadcast.NewMPR(broadcast.NewNeighborhood(nw.Graph()))
				case "dp":
					p = broadcast.NewDP(broadcast.NewNeighborhood(nw.Graph()))
				case "pdp":
					p = broadcast.NewPDP(broadcast.NewNeighborhood(nw.Graph()))
				case "dynamic-2.5hop":
					p = nw.DynamicProtocol(core.Hop25)
				}
				total += broadcast.Run(nw.Graph(), s, p).ForwardCount()
			}
			b.ReportMetric(float64(total)/float64(b.N), "fwd-nodes")
		})
	}
}

// BenchmarkTieBreak regenerates ABL-TIE: the static backbone size with and
// without the indirect-coverage tie-breaking rule.
func BenchmarkTieBreak(b *testing.B) {
	for _, opts := range []struct {
		name string
		o    backbone.Options
	}{
		{"with-tiebreak", backbone.Options{}},
		{"without-tiebreak", backbone.Options{NoIndirectTieBreak: true}},
	} {
		b.Run(opts.name, func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				nw := sample(b, 100, 6, i)
				cb := coverage.NewBuilder(nw.Graph(), nw.Clustering, coverage.Hop25)
				total += backbone.BuildStaticOpt(cb, nw.Clustering, opts.o).Size()
			}
			b.ReportMetric(float64(total)/float64(b.N), "cds-size")
		})
	}
}

// BenchmarkMobility regenerates ABL-MOBILITY: static-backbone membership
// churn per mobility step under random waypoint at increasing speeds.
func BenchmarkMobility(b *testing.B) {
	for _, speed := range []float64{2, 10} {
		b.Run(fmt.Sprintf("speed=%g", speed), func(b *testing.B) {
			churn := 0
			steps := 0
			for i := 0; i < b.N; i++ {
				nw := sample(b, 60, 8, i)
				bounds := nw.Topology.Bounds
				mob := topology.NewRandomWaypoint(nw.Topology.Positions, bounds,
					speed/2, speed, 0, rng.NewLabeled(uint64(i), "bench-waypoint"))
				prev := nw.StaticBackbone(core.Hop25)
				for s := 0; s < 5; s++ {
					cur := topology.FromPositions(mob.Step(1), bounds, nw.Topology.Radius)
					cl := cluster.LowestID(cur.G)
					bb := backbone.BuildStatic(cur.G, cl, coverage.Hop25)
					for v := 0; v < 60; v++ {
						if prev.Nodes[v] != bb.Nodes[v] {
							churn++
						}
					}
					prev = bb
					steps++
				}
			}
			if steps > 0 {
				b.ReportMetric(float64(churn)/float64(steps), "churn/step")
			}
		})
	}
}

// BenchmarkConstructionThroughput measures raw end-to-end construction
// cost: topology + clustering + static backbone at n=100 (engineering
// metric, not a paper figure).
func BenchmarkConstructionThroughput(b *testing.B) {
	r := rng.New(1)
	nw, err := topology.Generate(topology.Config{
		N: 100, Bounds: geom.Square(100), AvgDegree: 18, RequireConnected: true,
	}, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl := cluster.LowestID(nw.G)
		_ = backbone.BuildStatic(nw.G, cl, coverage.Hop25)
		_ = mocds.Build(nw.G, cl)
	}
}

// BenchmarkSICDS regenerates ABL-SICDS: sizes of every source-independent
// CDS construction at n=100, d=6.
func BenchmarkSICDS(b *testing.B) {
	for _, alg := range []string{"static-2.5hop", "mo-cds", "marking", "fwd-tree"} {
		b.Run(alg, func(b *testing.B) {
			src := rng.NewLabeled(12, "sicds")
			total := 0
			for i := 0; i < b.N; i++ {
				nw := sample(b, 100, 6, i)
				switch alg {
				case "static-2.5hop":
					total += nw.StaticBackbone(core.Hop25).Size()
				case "mo-cds":
					total += nw.MOCDS().Size()
				case "marking":
					total += len(marking.Build(nw.Graph()))
				case "fwd-tree":
					cb := coverage.NewBuilder(nw.Graph(), nw.Clustering, coverage.Hop25)
					tree, err := fwdtree.Build(cb, nw.Clustering, src.Intn(nw.N()))
					if err != nil {
						b.Fatal(err)
					}
					total += tree.Size()
				}
			}
			b.ReportMetric(float64(total)/float64(b.N), "cds-size")
		})
	}
}

// BenchmarkLossy regenerates ABL-LOSSY: delivery ratio at 20% per-link
// loss for flooding vs the dynamic backbone.
func BenchmarkLossy(b *testing.B) {
	for _, alg := range []string{"flooding", "dynamic-2.5hop"} {
		b.Run(alg, func(b *testing.B) {
			src := rng.NewLabeled(13, "lossy")
			sum := 0.0
			for i := 0; i < b.N; i++ {
				nw := sample(b, 60, 10, i)
				s := src.Intn(nw.N())
				opt := broadcast.Options{Loss: 0.2, Seed: uint64(i)}
				var res *broadcast.Result
				if alg == "flooding" {
					res = broadcast.RunOpts(nw.Graph(), s, broadcast.Flooding{}, opt)
				} else {
					res = broadcast.RunOpts(nw.Graph(), s, nw.DynamicProtocol(core.Hop25), opt)
				}
				sum += res.DeliveryRatio(nw.N())
			}
			b.ReportMetric(sum/float64(b.N), "delivery")
		})
	}
}

// BenchmarkMaintenance regenerates ABL-MAINT: head churn per step for full
// re-election vs LCC incremental repair at speed 5.
func BenchmarkMaintenance(b *testing.B) {
	for _, alg := range []string{"full-reelection", "lcc-incremental"} {
		b.Run(alg, func(b *testing.B) {
			churn, steps := 0, 0
			for i := 0; i < b.N; i++ {
				nw := sample(b, 60, 8, i)
				mob := topology.NewRandomWaypoint(nw.Topology.Positions, nw.Topology.Bounds,
					2.5, 5, 0, rng.NewLabeled(uint64(i), "bench-maint"))
				prev := nw.Clustering
				for s := 0; s < 5; s++ {
					cur := topology.FromPositions(mob.Step(1), nw.Topology.Bounds, nw.Topology.Radius)
					var next *cluster.Clustering
					if alg == "lcc-incremental" {
						next, _ = cluster.Maintain(cur.G, prev)
					} else {
						next = cluster.LowestID(cur.G)
					}
					for v := 0; v < 60; v++ {
						if next.Head[v] != prev.Head[v] {
							churn++
						}
					}
					prev = next
					steps++
				}
			}
			if steps > 0 {
				b.ReportMetric(float64(churn)/float64(steps), "churn/step")
			}
		})
	}
}

// BenchmarkPassiveConvergence regenerates ABL-PASSIVE: forwarders on the
// first vs the fourth flood of a shared passive-clustering structure.
func BenchmarkPassiveConvergence(b *testing.B) {
	for _, which := range []string{"flood-1", "flood-4"} {
		b.Run(which, func(b *testing.B) {
			src := rng.NewLabeled(14, "passive")
			total := 0
			for i := 0; i < b.N; i++ {
				nw := sample(b, 80, 18, i)
				sources := []int{src.Intn(80), src.Intn(80), src.Intn(80), src.Intn(80)}
				series := passive.RunSeries(nw.Graph(), sources)
				if which == "flood-1" {
					total += series[0].ForwardCount()
				} else {
					total += series[3].ForwardCount()
				}
			}
			b.ReportMetric(float64(total)/float64(b.N), "fwd-nodes")
		})
	}
}

// BenchmarkReliable regenerates ABL-RELIABLE: data transmissions of the
// reliable tree broadcast at 0% and 30% loss.
func BenchmarkReliable(b *testing.B) {
	for _, loss := range []float64{0, 0.3} {
		b.Run(fmt.Sprintf("loss=%g", loss), func(b *testing.B) {
			total := 0
			count := 0
			for i := 0; i < b.N; i++ {
				nw := sample(b, 60, 10, i)
				cb := coverage.NewBuilder(nw.Graph(), nw.Clustering, coverage.Hop25)
				tree, err := fwdtree.Build(cb, nw.Clustering, 0)
				if err != nil {
					b.Fatal(err)
				}
				res, err := reliable.Run(nw.Graph(), tree, 0, reliable.Config{Loss: loss, Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				if res.Delivered {
					total += res.Transmissions
					count++
				}
			}
			if count > 0 {
				b.ReportMetric(float64(total)/float64(count), "tx/bcast")
			}
		})
	}
}

// BenchmarkPruning regenerates ABL-PRUNING: back-off self-pruning at
// windows 0 and 8 vs the piggyback-pruned dynamic backbone.
func BenchmarkPruning(b *testing.B) {
	run := func(b *testing.B, measure func(nw *core.Network, src int) (int, int)) {
		src := rng.NewLabeled(15, "pruning")
		fwd, lat := 0, 0
		for i := 0; i < b.N; i++ {
			nw := sample(b, 80, 18, i)
			f, l := measure(nw, src.Intn(80))
			fwd += f
			lat += l
		}
		b.ReportMetric(float64(fwd)/float64(b.N), "fwd-nodes")
		b.ReportMetric(float64(lat)/float64(b.N), "latency")
	}
	b.Run("sba-window0", func(b *testing.B) {
		run(b, func(nw *core.Network, src int) (int, int) {
			nb := broadcast.NewNeighborhood(nw.Graph())
			r := broadcast.RunTimed(nw.Graph(), src, broadcast.NewSBA(nb, 0, 1))
			return r.ForwardCount(), r.Latency
		})
	})
	b.Run("sba-window8", func(b *testing.B) {
		run(b, func(nw *core.Network, src int) (int, int) {
			nb := broadcast.NewNeighborhood(nw.Graph())
			r := broadcast.RunTimed(nw.Graph(), src, broadcast.NewSBA(nb, 8, 1))
			return r.ForwardCount(), r.Latency
		})
	})
	b.Run("piggyback-dynamic", func(b *testing.B) {
		run(b, func(nw *core.Network, src int) (int, int) {
			r := nw.DynamicBroadcast(core.Hop25, src)
			return r.ForwardCount(), r.Latency
		})
	})
}

// BenchmarkRouting regenerates ABL-ROUTING: RREQ cost of route discovery.
func BenchmarkRouting(b *testing.B) {
	for _, alg := range []string{"flooding", "backbone"} {
		b.Run(alg, func(b *testing.B) {
			src := rng.NewLabeled(16, "routing")
			cost, stretch, count := 0, 0.0, 0
			for i := 0; i < b.N; i++ {
				nw := sample(b, 80, 12, i)
				s, d := src.Intn(80), src.Intn(80)
				if s == d {
					continue
				}
				var p broadcast.Protocol = broadcast.Flooding{}
				if alg == "backbone" {
					p = nw.DynamicProtocol(core.Hop25)
				}
				route, err := routing.Discover(nw.Graph(), s, d, p)
				if err != nil {
					b.Fatal(err)
				}
				cost += route.RequestCost
				stretch += route.Stretch(nw.Graph())
				count++
			}
			if count > 0 {
				b.ReportMetric(float64(cost)/float64(count), "rreq-tx")
				b.ReportMetric(stretch/float64(count), "stretch")
			}
		})
	}
}

// BenchmarkStorm regenerates ABL-STORM: redundant receptions per node.
func BenchmarkStorm(b *testing.B) {
	for _, alg := range []string{"flooding", "dynamic-2.5hop"} {
		b.Run(alg, func(b *testing.B) {
			src := rng.NewLabeled(17, "storm")
			sum := 0.0
			for i := 0; i < b.N; i++ {
				nw := sample(b, 80, 18, i)
				s := src.Intn(80)
				var res *broadcast.Result
				if alg == "flooding" {
					res = nw.Flood(s)
				} else {
					res = nw.DynamicBroadcast(core.Hop25, s)
				}
				sum += res.Redundancy()
			}
			b.ReportMetric(sum/float64(b.N), "dup/node")
		})
	}
}

// BenchmarkHierarchy regenerates ABL-HIER: heads per hierarchy level.
func BenchmarkHierarchy(b *testing.B) {
	for _, level := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("level=%d", level), func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				nw := sample(b, 100, 8, i)
				h, err := hier.Build(nw.Graph(), level+2)
				if err != nil {
					b.Fatal(err)
				}
				if level < h.Depth() {
					total += len(h.HeadsAt(level))
				} else {
					total++
				}
			}
			b.ReportMetric(float64(total)/float64(b.N), "heads")
		})
	}
}

// BenchmarkCollision regenerates ABL-COLLISION: delivery under
// synchronized MAC collisions.
func BenchmarkCollision(b *testing.B) {
	for _, alg := range []string{"flooding", "dynamic-2.5hop"} {
		b.Run(alg, func(b *testing.B) {
			src := rng.NewLabeled(18, "collision")
			sum := 0.0
			for i := 0; i < b.N; i++ {
				nw := sample(b, 80, 18, i)
				s := src.Intn(80)
				opt := broadcast.MACOptions{Jitter: 0, Seed: uint64(i)}
				var res *broadcast.CollisionResult
				if alg == "flooding" {
					res = broadcast.RunMAC(nw.Graph(), s, broadcast.Flooding{}, opt)
				} else {
					res = broadcast.RunMAC(nw.Graph(), s, nw.DynamicProtocol(core.Hop25), opt)
				}
				sum += res.DeliveryRatio(80)
			}
			b.ReportMetric(sum/float64(b.N), "delivery")
		})
	}
}

// BenchmarkScale exercises the full pipeline at sizes well beyond the
// paper's sweep, demonstrating the simulator's headroom (spatial-grid
// topology construction keeps it near-linear).
func BenchmarkScale(b *testing.B) {
	for _, n := range []int{200, 500, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				nw := sample(b, n, 18, i)
				static := nw.StaticBackbone(core.Hop25)
				res := nw.DynamicBroadcast(core.Hop25, i%n)
				if res.ForwardCount() > static.Size()+n/10 {
					b.Fatalf("dynamic forwarders %d implausibly high vs static %d",
						res.ForwardCount(), static.Size())
				}
			}
		})
	}
}

// BenchmarkScaleReplicate measures ONE full replicate of each figure
// pipeline at sizes two to three orders of magnitude beyond the paper's
// sweep (n = 1k, 10k, 50k at the paper's dense degree d=18): connected
// topology sampling, lowest-ID clustering, coverage digestion, and the
// respective backbone construction, all through the production workspace
// path. At these sizes a single replicate — not the replicate count —
// dominates wall-clock, so this is the scaling curve per network size.
// Run `go test -run xxx -bench ScaleReplicate -benchtime 1x` for a quick
// curve; n=50000 is skipped under -short.
func BenchmarkScaleReplicate(b *testing.B) {
	stages := []struct {
		name string
		est  experiment.WSEstimator
	}{
		{"static25", experiment.StaticSizeEstimatorWS(coverage.Hop25)},
		{"mocds", experiment.MOCDSSizeEstimatorWS()},
		{"dynamic25", experiment.DynamicForwardEstimatorWS(coverage.Hop25)},
	}
	for _, n := range []int{1000, 10000, 50000} {
		for _, st := range stages {
			b.Run(fmt.Sprintf("n=%d/%s", n, st.name), func(b *testing.B) {
				if testing.Short() && n > 10000 {
					b.Skip("n=50000 replicates take seconds; skipped under -short")
				}
				ws := experiment.NewWorkspace()
				sc := experiment.DefaultScenario(n, 18, 2003)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					v, ok := st.est(ws, sc, i)
					if !ok {
						b.Fatal("replicate skipped: no connected topology sampled")
					}
					if v <= 0 {
						b.Fatalf("implausible measurement %v", v)
					}
				}
			})
		}
	}
}

// BenchmarkScaleKernels isolates the backbone-construction kernels the
// sparse set representation targets: the topology is sampled ONCE
// outside the timer (sampling is geometry, not set algebra), and each
// iteration re-runs clusterhead election, coverage digestion and the
// stage's selection (or broadcast) over the workspace path.
func BenchmarkScaleKernels(b *testing.B) {
	type stage struct {
		name string
		run  func(ws *experiment.Workspace, nw *topology.Network, source int) float64
	}
	stages := []stage{
		{"static25", func(ws *experiment.Workspace, nw *topology.Network, _ int) float64 {
			cl := ws.Cluster.LowestID(nw.G)
			ws.Builder.Reset(nw.G, cl, coverage.Hop25)
			return float64(ws.Backbone.StaticSize(&ws.Builder, cl, backbone.Options{}))
		}},
		{"mocds", func(ws *experiment.Workspace, nw *topology.Network, _ int) float64 {
			cl := ws.Cluster.LowestID(nw.G)
			ws.Builder.Reset(nw.G, cl, coverage.Hop3)
			return float64(ws.MOCDS.SizeFrom(&ws.Builder, cl))
		}},
		{"dynamic25", func(ws *experiment.Workspace, nw *topology.Network, source int) float64 {
			cl := ws.Cluster.LowestID(nw.G)
			p := ws.Dynamic.NewWith(nw.G, cl, coverage.Hop25)
			return float64(p.BroadcastWS(source).ForwardCount())
		}},
	}
	for _, n := range []int{1000, 10000, 50000} {
		for _, st := range stages {
			b.Run(fmt.Sprintf("n=%d/%s", n, st.name), func(b *testing.B) {
				if testing.Short() && n > 10000 {
					b.Skip("n=50000 kernels take seconds; skipped under -short")
				}
				ws := experiment.NewWorkspace()
				sc := experiment.DefaultScenario(n, 18, 2003)
				nw, _, ok := sc.SampleWS(ws, "scale-kernels", 0)
				if !ok {
					b.Fatal("no connected topology sampled")
				}
				source := n / 2
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if v := st.run(ws, nw, source); v <= 0 {
						b.Fatalf("implausible measurement %v", v)
					}
				}
			})
		}
	}
}

// BenchmarkElection regenerates ABL-ELECTION: backbone size under the two
// clusterhead election rules.
func BenchmarkElection(b *testing.B) {
	for _, alg := range []string{"lowest-id", "highest-degree"} {
		b.Run(alg, func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				nw := sample(b, 100, 18, i)
				var cl *cluster.Clustering
				if alg == "lowest-id" {
					cl = nw.Clustering
				} else {
					cl = cluster.HighestDegree(nw.Graph())
				}
				cb := coverage.NewBuilder(nw.Graph(), cl, coverage.Hop25)
				total += backbone.BuildStaticFrom(cb, cl).Size()
			}
			b.ReportMetric(float64(total)/float64(b.N), "cds-size")
		})
	}
}

// BenchmarkTopologyGenerate measures raw connected-topology sampling at the
// paper's dense operating point (n=100, d=18): placement, spatial-grid
// neighbor discovery, graph assembly, and the connectivity check.
func BenchmarkTopologyGenerate(b *testing.B) {
	for _, n := range []int{100, 500} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := rng.New(42)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := topology.Generate(topology.Config{
					N: n, Bounds: geom.Square(100), AvgDegree: 18, RequireConnected: true,
				}, r)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCoverageBuilder measures the CH_HOP1/CH_HOP2 digest plus all
// per-head coverage sets — the inner kernel of every backbone build.
func BenchmarkCoverageBuilder(b *testing.B) {
	for _, mode := range []coverage.Mode{coverage.Hop25, coverage.Hop3} {
		b.Run(mode.String(), func(b *testing.B) {
			nw := sample(b, 100, 18, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cb := coverage.NewBuilder(nw.Graph(), nw.Clustering, mode)
				for _, h := range nw.Clustering.Heads {
					_ = cb.Of(h)
				}
			}
		})
	}
}

// BenchmarkStaticBackbone measures the greedy gateway selection over a
// prebuilt coverage builder (set-cover hot path, Figure 6's algorithm).
func BenchmarkStaticBackbone(b *testing.B) {
	nw := sample(b, 100, 18, 1)
	cb := coverage.NewBuilder(nw.Graph(), nw.Clustering, coverage.Hop25)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = backbone.BuildStaticFrom(cb, nw.Clustering)
	}
}

// BenchmarkDynamicBroadcast measures one dynamic-backbone broadcast,
// including the per-broadcast coverage pruning (Figure 7's hot path).
func BenchmarkDynamicBroadcast(b *testing.B) {
	nw := sample(b, 100, 18, 1)
	p := nw.DynamicProtocol(core.Hop25)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = broadcast.Run(nw.Graph(), i%nw.N(), p)
	}
}

// BenchmarkSweepPoint measures one full figure data point end to end —
// n=100, d=18, replicated under the paper's stopping rule (99% CI within
// ±5%) — exactly what cmd/figures runs per (figure, series, n), through the
// production workspace-pooled batched-replication path at the configured
// worker count.
func BenchmarkSweepPoint(b *testing.B) {
	sc := experiment.DefaultScenario(100, 18, 2003)
	est := experiment.StaticSizeEstimatorWS(coverage.Hop25)
	workers := experiment.Parallelism()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := experiment.SweepPoint(sc, workers, est)
		if p.Missing() {
			b.Fatal("sweep point failed")
		}
		if p.Mean < 10 {
			b.Fatalf("implausible CDS size %.1f", p.Mean)
		}
	}
}

// BenchmarkMobilityStep measures one mobility time step of unit-disk-graph
// maintenance at n=100, d=18: a full FromPositions reconstruction, the
// build the mobility ablations run every step. "sparse-10pct" moves 10
// nodes per step; "all-nodes" moves every node, as random waypoint with
// zero pause does. The "full-rebuild" rows build through the package
// function's fresh workspace; the "reused-workspace" rows through one
// topology.Workspace, as the mobility and maint figures do per replicate.
func BenchmarkMobilityStep(b *testing.B) {
	const n = 100
	for _, w := range []struct {
		name   string
		movers int
	}{
		{"sparse-10pct", n / 10},
		{"all-nodes", n},
	} {
		for _, reuse := range []bool{false, true} {
			row := "full-rebuild"
			if reuse {
				row = "reused-workspace"
			}
			b.Run(w.name+"/"+row, func(b *testing.B) {
				nw := sample(b, n, 18, 1).Topology
				bounds, radius := nw.Bounds, nw.Radius
				pos := append([]geom.Point(nil), nw.Positions...)
				r := rng.NewLabeled(3, "bench-mobility")
				build := topology.FromPositions
				if reuse {
					build = topology.NewWorkspace().FromPositions
				}
				b.ReportAllocs()
				b.ResetTimer()
				edges := 0
				for i := 0; i < b.N; i++ {
					for m := 0; m < w.movers; m++ {
						v := r.Intn(n)
						pos[v] = bounds.Clamp(geom.Point{
							X: pos[v].X + (r.Float64()-0.5)*2,
							Y: pos[v].Y + (r.Float64()-0.5)*2,
						})
					}
					edges += build(pos, bounds, radius).G.M()
				}
				_ = edges
			})
		}
	}
}

// BenchmarkBitsetOps measures the graph.Bitset kernels (union, difference,
// popcount, iterate) at the coverage-set universe size of the paper's
// largest sweep point.
func BenchmarkBitsetOps(b *testing.B) {
	const n = 100
	r := rng.New(5)
	x := graph.NewBitset(n)
	y := graph.NewBitset(n)
	for i := 0; i < 30; i++ {
		x.Add(r.Intn(n))
		y.Add(r.Intn(n))
	}
	scratch := graph.NewBitset(n)
	b.Run("clone-or-andnot-count", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scratch.CopyFrom(x)
			scratch.Or(y)
			scratch.AndNot(x)
			_ = scratch.Count()
		}
	})
	b.Run("foreach", func(b *testing.B) {
		b.ReportAllocs()
		sum := 0
		for i := 0; i < b.N; i++ {
			x.ForEach(func(v int) { sum += v })
		}
		_ = sum
	})
}

// BenchmarkBitsetReset is the regression guard for the high-water-mark
// Reset: clearing a bitset costs O(words up to the highest word touched
// since the last clear), not Θ(capacity/64), and never allocates. The
// members are confined to the low 4096 IDs, so ns/op must stay flat as the
// capacity grows 10000× — a capacity-proportional clear would blow the
// n=1M case up by three orders of magnitude.
func BenchmarkBitsetReset(b *testing.B) {
	for _, n := range []int{100, 100000, 1 << 20} {
		b.Run(fmt.Sprintf("n=%d/touched=64", n), func(b *testing.B) {
			x := graph.NewBitset(n)
			r := rng.New(11)
			lim := 4096
			if lim > n {
				lim = n
			}
			ids := make([]int, 64)
			for i := range ids {
				ids[i] = r.Intn(lim)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, v := range ids {
					x.Add(v)
				}
				x.Reset(n)
			}
		})
	}
}

// BenchmarkDESMAC measures the slotted-collision engine at sizes up to
// two orders of magnitude past the paper's sweep. The topology is
// sampled once outside the timer; each iteration is one production
// broadcast.RunMAC call — a fresh workspace and the map-based result,
// so allocs/op counts the per-node buffers and the result maps. The
// gossip variant thins the forwarder set, so with an 8-slot contention
// window most calendar slots are sparsely occupied.
func BenchmarkDESMAC(b *testing.B) {
	protos := []struct {
		name string
		p    broadcast.Protocol
	}{
		{"flooding", broadcast.Flooding{}},
		{"gossip65", broadcast.Gossip{P: 0.65, Seed: 7}},
	}
	for _, n := range []int{1000, 10000, 100000} {
		for _, pr := range protos {
			opt := broadcast.MACOptions{Jitter: 8, Seed: 7}
			b.Run(fmt.Sprintf("n=%d/%s", n, pr.name), func(b *testing.B) {
				if testing.Short() && n > 10000 {
					b.Skip("n=100000 runs take seconds; skipped under -short")
				}
				g := sample(b, n, 18, 0).Graph()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res := broadcast.RunMAC(g, 0, pr.p, opt)
					if len(res.Received) < 2 {
						b.Fatal("broadcast did not spread")
					}
				}
			})
		}
	}
}

// BenchmarkDESWire measures the construction wire protocol (the worklist
// engine behind sim.Run) at the same scale points.
func BenchmarkDESWire(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			if testing.Short() && n > 10000 {
				b.Skip("n=100000 runs take seconds; skipped under -short")
			}
			g := sample(b, n, 18, 0).Graph()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if out := sim.Run(g, coverage.Hop25); len(out.Heads) == 0 {
					b.Fatal("no clusterheads elected")
				}
			}
		})
	}
}

// BenchmarkDESTimed measures the delayed-decision engine (timestamp wheel
// + epoch-stamped state) on a warm workspace.
func BenchmarkDESTimed(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			if testing.Short() && n > 10000 {
				b.Skip("n=100000 runs take seconds; skipped under -short")
			}
			g := sample(b, n, 18, 0).Graph()
			p := broadcast.CounterBased{Threshold: 3, MaxDelay: 8, Seed: 7}
			tw := broadcast.NewTimedWorkspace()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := tw.Run(g, 0, p, broadcast.TimedOptions{}); len(res.Received) < 2 {
					b.Fatal("broadcast did not spread")
				}
			}
		})
	}
}

// BenchmarkWorkloadThroughput measures the multi-source MAC engine's
// scaling curve: one Poisson workload of 32 concurrent flooding flows
// (rate 0.5 arrivals/slot, jitter 4) contending for slots on one fixed
// unit-disk graph (d=18, the dense paper regime — connected at every
// size), at n = 1k / 10k / 100k. The n=100000 point is skipped under
// -short. The measured end-to-end throughput (deliveries per slot of
// makespan) is reported as a custom metric.
func BenchmarkWorkloadThroughput(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			if testing.Short() && n > 10000 {
				b.Skip("large workload point skipped with -short")
			}
			nw := sample(b, n, 18, 0)
			spec := workload.Spec{Process: workload.Poisson, Rate: 0.5, Flows: 32, FanOut: 1, Seed: 99}
			flows, err := spec.Generate(nw.N())
			if err != nil {
				b.Fatal(err)
			}
			proto := func(int) broadcast.Protocol { return broadcast.Flooding{} }
			opt := broadcast.MACOptions{Jitter: 4}
			b.ResetTimer()
			var last *workload.TrafficResult
			for i := 0; i < b.N; i++ {
				last = workload.RunTraffic(nw.Graph(), flows, proto, opt, broadcast.RunMACMulti)
			}
			if last.DeliveryRatio == 0 {
				b.Fatal("workload delivered nothing")
			}
			b.ReportMetric(last.Throughput, "deliveries/slot")
		})
	}
}
