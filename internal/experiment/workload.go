package experiment

import (
	"fmt"

	"clustercast/internal/backbone"
	"clustercast/internal/broadcast"
	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/dynamicb"
	"clustercast/internal/mocds"
	"clustercast/internal/stats"
	"clustercast/internal/topology"
	"clustercast/internal/workload"
)

// trafficBackbone names one relay-structure series of the workload
// figures and builds its per-flow protocol factory over a clustered
// sample.
type trafficBackbone struct {
	name  string
	proto func(nw *topology.Network, cl *cluster.Clustering) workload.ProtoFactory
}

// trafficBackbones lists the four relay structures the workload figures
// compare: blind flooding, the static backbone (SI-CDS), the dynamic
// backbone (SD-CDS), and the MO_CDS. Each factory builds the structure
// once per replicate; the flooding/CDS protocols are stateless and the
// dynamic protocol keeps no cross-broadcast state outside its reuse
// arenas (off here), so one shared instance serves every flow.
func trafficBackbones() []trafficBackbone {
	return []trafficBackbone{
		{"flooding", func(nw *topology.Network, cl *cluster.Clustering) workload.ProtoFactory {
			return func(int) broadcast.Protocol { return broadcast.Flooding{} }
		}},
		{"static-2.5hop", func(nw *topology.Network, cl *cluster.Clustering) workload.ProtoFactory {
			s := backbone.BuildStatic(nw.G, cl, coverage.Hop25)
			p := broadcast.StaticCDS{Set: s.Nodes}
			return func(int) broadcast.Protocol { return p }
		}},
		{"dynamic-2.5hop", func(nw *topology.Network, cl *cluster.Clustering) workload.ProtoFactory {
			p := dynamicb.New(nw.G, cl, coverage.Hop25)
			return func(int) broadcast.Protocol { return p }
		}},
		{"mo-cds", func(nw *topology.Network, cl *cluster.Clustering) workload.ProtoFactory {
			p := broadcast.StaticCDS{Set: mocds.Build(nw.G, cl), Label: "mocds"}
			return func(int) broadcast.Protocol { return p }
		}},
	}
}

// flowsDrawn is a replicate's draw plus the broadcast flows generated
// over it.
type flowsDrawn struct {
	draw
	flows []workload.Flow
}

// loadSweep runs a workload figure over the offered load: every replicate
// at a rate samples under label-rate and generates its flows from spec
// (seeded per replicate) once, and each backbone × metric member runs its
// own workload over them, on one replicate worker per point.
func loadSweep(label string, rates []float64, n int, d float64, seed uint64, rule stats.StopRule, spec workload.Spec,
	metrics []string, run func(f flowsDrawn, proto workload.ProtoFactory, metric int) (float64, bool)) []Series {
	var names []string
	var members []member[flowsDrawn]
	for _, bk := range trafficBackbones() {
		for m, metric := range metrics {
			names = append(names, bk.name+"-"+metric)
			members = append(members, func(_ *Workspace, _ Scenario, f flowsDrawn) (float64, bool) {
				return run(f, bk.proto(f.nw, f.cl), m)
			})
		}
	}
	return sweepAxis(names, along(rates, n, d, seed, rule), 1, func(rate float64) groupEstimator {
		return shared(derived(fmt.Sprintf("%s-%g", label, rate), func(_ *Workspace, sc Scenario, d draw) (flowsDrawn, bool) {
			sp := spec
			sp.Rate, sp.Seed = rate, sc.Seed^uint64(d.rep)
			fl, err := sp.Generate(d.nw.N())
			return flowsDrawn{d, fl}, err == nil
		}), members...)
	})
}

// Traffic is the heavy-load ablation the single-shot figures never
// produced: concurrent Poisson broadcast flows contend for MAC slots, and
// delivery ratio plus end-to-end throughput are swept over the offered
// load. The paper's backbone argument is exactly that fewer forwarders
// keep the medium usable as load grows — flooding's delivery collapses
// first. ABL-TRAFFIC.
func Traffic(rates []float64, n int, d float64, flows, jitter int, seed uint64, rule stats.StopRule) *Figure {
	spec := workload.Spec{Process: workload.Poisson, Flows: flows, FanOut: 1}
	return &Figure{
		ID:     "traffic",
		Title:  fmt.Sprintf("Concurrent broadcast load (n=%d, d=%g, %d flows, jitter %d)", n, d, flows, jitter),
		XLabel: "offered load (arrivals/slot)", YLabel: "delivery ratio / throughput",
		Series: loadSweep("traffic", rates, n, d, seed, rule, spec, []string{"delivery", "throughput"},
			func(f flowsDrawn, proto workload.ProtoFactory, metric int) (float64, bool) {
				tr := workload.RunTraffic(f.nw.G, f.flows, proto, broadcast.MACOptions{Jitter: jitter}, broadcast.RunMACMulti)
				if metric == 0 {
					return tr.DeliveryRatio, true
				}
				return tr.Throughput, true
			}),
	}
}

// Discovery measures backbone-assisted route discovery under load:
// concurrent RREQ floods share the MAC, each found route is the delivery
// tree's parent chain at the destination, and the RREP unicasts back over
// it. Success ratio and end-to-end discovery latency are swept over the
// offered load per backbone. ABL-DISCOVERY.
func Discovery(rates []float64, n int, d float64, flows, jitter int, seed uint64, rule stats.StopRule) *Figure {
	spec := workload.Spec{Process: workload.Poisson, Flows: flows, FanOut: 1, Discovery: true}
	return &Figure{
		ID:     "discovery",
		Title:  fmt.Sprintf("Route discovery under load (n=%d, d=%g, %d floods, jitter %d)", n, d, flows, jitter),
		XLabel: "offered load (arrivals/slot)", YLabel: "success ratio / latency (slots)",
		Series: loadSweep("discovery", rates, n, d, seed, rule, spec, []string{"success", "latency"},
			func(f flowsDrawn, proto workload.ProtoFactory, metric int) (float64, bool) {
				dr := workload.RunDiscovery(f.nw.G, f.flows, proto, broadcast.MACOptions{Jitter: jitter}, broadcast.RunMACMulti)
				if metric == 0 {
					return dr.SuccessRatio, dr.Requests > 0
				}
				// Latency is conditional on success: a replicate where every
				// flood failed contributes no sample rather than a spurious
				// zero.
				return dr.MeanLatency, dr.Found > 0
			}),
	}
}
