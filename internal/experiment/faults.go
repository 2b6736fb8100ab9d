package experiment

import (
	"fmt"

	"clustercast/internal/backbone"
	"clustercast/internal/broadcast"
	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/dynamicb"
	"clustercast/internal/faults"
	"clustercast/internal/mocds"
	"clustercast/internal/stats"
	"clustercast/internal/topology"
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
	workers := Parallelism()
	type sample struct {
		nw    *topology.Network
		cl    *cluster.Clustering
		o     *faults.Oracle
		alive func(int) bool
		src   int
	}
	// draw builds the replicate's common state: topology, clustering, fault
	// oracle (seeded per replicate), and a live source.
	draw := func(sc Scenario, q float64, name string, rep int) (*sample, bool) {
		nw, cl, r, ok := clusteredSample(sc, fmt.Sprintf("faults-%s-%g", name, q), rep)
		if !ok {
			return nil, false
		}
		o := faults.New(churnSpec(q, sc.Seed^uint64(rep)), nw.N())
		o.SetPositions(nw.Positions)
		alive := o.Alive(0)
		src, ok := liveSource(r.source(nw.N()), nw.N(), alive)
		if !ok {
			return nil, false
		}
		return &sample{nw: nw, cl: cl, o: o, alive: alive, src: src}, true
	}
	mk := func(name string, runOne func(s *sample) (*broadcast.Result, bool)) Series {
		ser := Series{Name: name, Points: make([]Point, len(qs))}
		forEachPoint(len(qs), workers, func(i int) {
			q := qs[i]
			sc := DefaultScenario(n, d, seed)
			sc.Rule = rule
			sum, err := stats.ReplicateN(sc.Rule, workers, func(rep int) (float64, bool) {
				s, ok := draw(sc, q, name, rep)
				if !ok {
					return 0, false
				}
				res, ok := runOne(s)
				if !ok {
					return 0, false
				}
				return liveDelivery(res, s.nw.N(), s.alive)
			})
			if err != nil {
				ser.Points[i] = Point{X: q}
				return
			}
			ser.Points[i] = Point{X: q, Mean: sum.Mean(), CI: sum.CI(0.99), Reps: sum.N()}
		})
		return ser
	}
	opt := func(s *sample) broadcast.Options { return broadcast.Options{Faults: s.o} }
	return &Figure{
		ID:     "faults",
		Title:  fmt.Sprintf("Delivery to live nodes under crash/recovery churn (n=%d, d=%g, MTTR=%d)", n, d, faultsMeanDown),
		XLabel: "downtime fraction", YLabel: "delivery ratio (live nodes)",
		Series: []Series{
			mk("flooding", func(s *sample) (*broadcast.Result, bool) {
				return broadcast.RunOpts(s.nw.G, s.src, broadcast.Flooding{}, opt(s)), true
			}),
			mk("static-2.5hop-stale", func(s *sample) (*broadcast.Result, bool) {
				b := backbone.BuildStatic(s.nw.G, s.cl, coverage.Hop25)
				return broadcast.RunOpts(s.nw.G, s.src, broadcast.StaticCDS{Set: b.Nodes}, opt(s)), true
			}),
			mk("static-2.5hop-repaired", func(s *sample) (*broadcast.Result, bool) {
				base := backbone.BuildStatic(s.nw.G, s.cl, coverage.Hop25)
				allUp := func(int) bool { return true }
				_, rep, _, err := backbone.Repair(s.nw.G, s.cl, base, allUp, s.alive, backbone.Options{}, nil)
				if err != nil {
					return nil, false
				}
				return broadcast.RunOpts(s.nw.G, s.src, broadcast.StaticCDS{Set: rep.Nodes}, opt(s)), true
			}),
			mk("dynamic-2.5hop", func(s *sample) (*broadcast.Result, bool) {
				return broadcast.RunOpts(s.nw.G, s.src, dynamicb.New(s.nw.G, s.cl, coverage.Hop25), opt(s)), true
			}),
			mk("mo-cds", func(s *sample) (*broadcast.Result, bool) {
				c := mocds.Build(s.nw.G, s.cl)
				return broadcast.RunOpts(s.nw.G, s.src, broadcast.StaticCDS{Set: c.Nodes}, opt(s)), true
			}),
		},
	}
}

// Burstiness holds the stationary loss rate fixed and sweeps the mean burst
// length of the Gilbert–Elliott link chain: L = 1 reproduces the i.i.d.
// loss of ABL-LOSSY exactly, larger L concentrates the same number of lost
// copies into correlated runs. ABL-BURST. Burstiness hurts sparse backbones
// more than flooding because a burst takes out every retransmission
// opportunity a single relay had, while flooding's redundancy rides across
// independent links.
// With SetBatchReplication on, every series but the dynamic backbone runs
// on the 64-wide engine: SetBurst specs are transition-batchable (the
// 64-chain Gilbert–Elliott state word in internal/faults), so a whole
// batch's loss bursts advance per machine word. The churn figure above is
// NOT batchable (faults.BatchSupported excludes node churn) and always
// stays scalar — it is the opt-in's documented fallback.
func Burstiness(burstLens []float64, p float64, n int, d float64, seed uint64, rule stats.StopRule) *Figure {
	workers := Parallelism()
	mk := func(name string, kernel BatchKernel, runOne func(nw *topology.Network, cl *cluster.Clustering, src int, opt broadcast.Options) *broadcast.Result) Series {
		s := Series{Name: name, Points: make([]Point, len(burstLens))}
		forEachPoint(len(burstLens), workers, func(i int) {
			L := burstLens[i]
			sc := DefaultScenario(n, d, seed)
			sc.Rule = rule
			var burst faults.Spec
			if err := burst.SetBurst(p, L); err != nil {
				s.Points[i] = Point{X: L}
				return
			}
			if kernel != nil && useBatch(burst) {
				spec := func(batch int) faults.Spec {
					sp := burst
					sp.Seed = batchSeed(sc.Seed, batch)
					return sp
				}
				s.Points[i] = BatchSweepPoint(sc, workers, L, fmt.Sprintf("burst-%s-%g", name, L), spec, kernel)
				return
			}
			sum, err := stats.ReplicateN(sc.Rule, workers, func(rep int) (float64, bool) {
				nw, cl, r, ok := clusteredSample(sc, fmt.Sprintf("burst-%s-%g", name, L), rep)
				if !ok {
					return 0, false
				}
				spec := burst
				spec.Seed = sc.Seed ^ uint64(rep)
				o := faults.New(spec, nw.N())
				res := runOne(nw, cl, r.source(nw.N()), broadcast.Options{Faults: o})
				return res.DeliveryRatio(nw.N()), true
			})
			if err != nil {
				s.Points[i] = Point{X: L}
				return
			}
			s.Points[i] = Point{X: L, Mean: sum.Mean(), CI: sum.CI(0.99), Reps: sum.N()}
		})
		return s
	}
	return &Figure{
		ID:     "burst",
		Title:  fmt.Sprintf("Delivery under bursty link loss, fixed rate p=%g (n=%d, d=%g)", p, n, d),
		XLabel: "mean burst length", YLabel: "delivery ratio",
		Series: []Series{
			mk("flooding", floodingKernel, func(nw *topology.Network, cl *cluster.Clustering, src int, opt broadcast.Options) *broadcast.Result {
				return broadcast.RunOpts(nw.G, src, broadcast.Flooding{}, opt)
			}),
			mk("static-2.5hop", staticCDSKernel, func(nw *topology.Network, cl *cluster.Clustering, src int, opt broadcast.Options) *broadcast.Result {
				b := backbone.BuildStatic(nw.G, cl, coverage.Hop25)
				return broadcast.RunOpts(nw.G, src, broadcast.StaticCDS{Set: b.Nodes}, opt)
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
