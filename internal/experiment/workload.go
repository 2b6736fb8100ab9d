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
			c := mocds.Build(nw.G, cl)
			p := broadcast.StaticCDS{Set: c.Nodes, Label: "mocds"}
			return func(int) broadcast.Protocol { return p }
		}},
	}
}

// Traffic is the heavy-load ablation the single-shot figures never
// produced: concurrent Poisson broadcast flows contend for MAC slots, and
// delivery ratio plus end-to-end throughput are swept over the offered
// load. The paper's backbone argument is exactly that fewer forwarders
// keep the medium usable as load grows — flooding's delivery collapses
// first. ABL-TRAFFIC.
func Traffic(rates []float64, n int, d float64, flows, jitter int, seed uint64, rule stats.StopRule) *Figure {
	type metric struct {
		name    string
		measure func(tr *workload.TrafficResult) float64
	}
	metrics := []metric{
		{"delivery", func(tr *workload.TrafficResult) float64 { return tr.DeliveryRatio }},
		{"throughput", func(tr *workload.TrafficResult) float64 { return tr.Throughput }},
	}
	var series []Series
	for _, bk := range trafficBackbones() {
		bk := bk
		for _, m := range metrics {
			m := m
			s := Series{Name: bk.name + "-" + m.name, Points: make([]Point, len(rates))}
			ForEachPoint(len(rates), func(i int) {
				rate := rates[i]
				sc := DefaultScenario(n, d, seed)
				sc.Rule = rule
				sum, err := stats.Replicate(sc.Rule, func(rep int) (float64, bool) {
					nw, cl, _, ok := clusteredSample(sc, fmt.Sprintf("traffic-%g", rate), rep)
					if !ok {
						return 0, false
					}
					spec := workload.Spec{
						Process: workload.Poisson, Rate: rate, Flows: flows,
						FanOut: 1, Seed: sc.Seed ^ uint64(rep),
					}
					fl, err := spec.Generate(nw.N())
					if err != nil {
						return 0, false
					}
					tr := workload.RunTraffic(nw.G, fl, bk.proto(nw, cl),
						broadcast.MACOptions{Jitter: jitter}, broadcast.RunMACMulti)
					return m.measure(tr), true
				})
				if err != nil {
					s.Points[i] = Point{X: rate}
					return
				}
				s.Points[i] = Point{X: rate, Mean: sum.Mean(), CI: sum.CI(0.99), Reps: sum.N()}
			})
			series = append(series, s)
		}
	}
	return &Figure{
		ID:     "traffic",
		Title:  fmt.Sprintf("Concurrent broadcast load (n=%d, d=%g, %d flows, jitter %d)", n, d, flows, jitter),
		XLabel: "offered load (arrivals/slot)", YLabel: "delivery ratio / throughput",
		Series: series,
	}
}

// Discovery measures backbone-assisted route discovery under load:
// concurrent RREQ floods share the MAC, each found route is the delivery
// tree's parent chain at the destination, and the RREP unicasts back over
// it. Success ratio and end-to-end discovery latency are swept over the
// offered load per backbone. ABL-DISCOVERY.
func Discovery(rates []float64, n int, d float64, flows, jitter int, seed uint64, rule stats.StopRule) *Figure {
	type metric struct {
		name    string
		measure func(dr *workload.DiscoveryResult) (float64, bool)
	}
	metrics := []metric{
		{"success", func(dr *workload.DiscoveryResult) (float64, bool) {
			return dr.SuccessRatio, dr.Requests > 0
		}},
		// Latency is conditional on success: a replicate where every flood
		// failed contributes no sample rather than a spurious zero.
		{"latency", func(dr *workload.DiscoveryResult) (float64, bool) {
			return dr.MeanLatency, dr.Found > 0
		}},
	}
	var series []Series
	for _, bk := range trafficBackbones() {
		bk := bk
		for _, m := range metrics {
			m := m
			s := Series{Name: bk.name + "-" + m.name, Points: make([]Point, len(rates))}
			ForEachPoint(len(rates), func(i int) {
				rate := rates[i]
				sc := DefaultScenario(n, d, seed)
				sc.Rule = rule
				sum, err := stats.Replicate(sc.Rule, func(rep int) (float64, bool) {
					nw, cl, _, ok := clusteredSample(sc, fmt.Sprintf("discovery-%g", rate), rep)
					if !ok {
						return 0, false
					}
					spec := workload.Spec{
						Process: workload.Poisson, Rate: rate, Flows: flows,
						FanOut: 1, Discovery: true, Seed: sc.Seed ^ uint64(rep),
					}
					fl, err := spec.Generate(nw.N())
					if err != nil {
						return 0, false
					}
					dr := workload.RunDiscovery(nw.G, fl, bk.proto(nw, cl),
						broadcast.MACOptions{Jitter: jitter}, broadcast.RunMACMulti)
					return m.measure(dr)
				})
				if err != nil {
					s.Points[i] = Point{X: rate}
					return
				}
				s.Points[i] = Point{X: rate, Mean: sum.Mean(), CI: sum.CI(0.99), Reps: sum.N()}
			})
			series = append(series, s)
		}
	}
	return &Figure{
		ID:     "discovery",
		Title:  fmt.Sprintf("Route discovery under load (n=%d, d=%g, %d floods, jitter %d)", n, d, flows, jitter),
		XLabel: "offered load (arrivals/slot)", YLabel: "success ratio / latency (slots)",
		Series: series,
	}
}
