package main

import (
	"clustercast/internal/broadcast"
	"clustercast/internal/coverage"
	"clustercast/internal/dynamicb"
	"clustercast/internal/experiment"
	"clustercast/internal/graph"
	"clustercast/internal/routing"
	"clustercast/internal/workload"
)

// traffic is the traffic-5k workload: one n=5,000, d=18 graph and the four
// relay structures of the traffic figures (flooding, SI-CDS 2.5-hop, SD-CDS
// 2.5-hop, MO_CDS), each carrying 32 Poisson flows at a light and a heavy
// offered load, as plain broadcasts
// (workload.RunTraffic) and as route discoveries (workload.RunDiscovery),
// on the multi-source slotted MAC with contention window 3.
type traffic struct {
	n, flows, jitter int
	rates            []float64
	seed             uint64
	workers          int
	ws               *experiment.Workspace
}

func newTraffic(cfg config) runner {
	t := &traffic{n: 5000, flows: 32, jitter: 3, rates: []float64{0.1, 0.8}, seed: cfg.seed}
	if cfg.tiny {
		t.n, t.flows = 400, 8
	}
	if cfg.workers > 0 {
		t.workers = cfg.workers
	}
	t.ws = experiment.NewWorkspace()
	return t
}

func (t *traffic) op(tr *tracer) outcome {
	configure(1)
	experiment.SetBuildWorkers(t.workers)
	o := newOutcome()
	c := calls{tr: tr, o: &o}
	sc := experiment.DefaultScenario(t.n, 18, t.seed)
	ws := t.ws
	nw, _, ok := c.sampleWS(ws, sc, "traffic", 0)
	if !ok {
		return o
	}
	g := nw.G
	cl := c.elect(ws, g)

	c.digest(ws, g, cl, coverage.Hop25)
	si := spanV(tr, "backbone.select", func() *graph.Bitset { return ws.Backbone.StaticNodes(&ws.Builder, cl, noOpts) })
	c.backboneSize(si.Count(), t.n)
	checkCDS(tr, &o, "SI-CDS", g, si, si.Count())
	// The dynamic protocol is shared by every flow, so it must be the
	// non-reusing one the traffic figures use.
	sd := spanV(tr, "dynamicb.init", func() *dynamicb.Protocol { return dynamicb.New(g, cl, coverage.Hop25) })
	c.digest(ws, g, cl, coverage.Hop3)
	mo := spanV(tr, "mocds.select", func() *graph.Bitset { return ws.MOCDS.NodesFrom(&ws.Builder, cl) })
	c.mocdsSize(mo.Count(), t.n)
	checkCDS(tr, &o, "MO_CDS", g, mo, mo.Count())
	relays := []struct {
		name  string
		proto broadcast.Protocol
	}{
		{"flooding", broadcast.Flooding{}},
		{"static-2.5hop", broadcast.StaticCDSBits{Set: si}},
		{"dynamic-2.5hop", sd},
		{"mo-cds", broadcast.StaticCDSBits{Set: mo, Label: "mocds"}},
	}

	var last *broadcast.MultiResult
	engine := c.engine(&last)
	opt := broadcast.MACOptions{Jitter: t.jitter}
	for _, rate := range t.rates {
		for _, discovery := range []bool{false, true} {
			spec := workload.Spec{
				Process: workload.Poisson, Rate: rate, Flows: t.flows, FanOut: 1,
				Discovery: discovery, Seed: sc.Seed,
			}
			var flows []workload.Flow
			var err error
			tr.span("workload.generate", func() { flows, err = spec.Generate(t.n) })
			if err != nil {
				o.fail("generating %s: %v", spec.String(), err)
				continue
			}
			for _, r := range relays {
				proto := func(int) broadcast.Protocol { return r.proto }
				if !discovery {
					res := spanV(tr, "workload.run", func() *workload.TrafficResult {
						return workload.RunTraffic(g, flows, proto, opt, engine)
					})
					tr.add("workload.delivery", res.DeliveryRatio)
					tr.add("workload.traffic_runs", 1)
					o.record("traffic %s %g: %+v\n", r.name, rate, *res)
					continue
				}
				res := spanV(tr, "workload.run", func() *workload.DiscoveryResult {
					return workload.RunDiscovery(g, flows, proto, opt, engine)
				})
				tr.add("workload.found", float64(res.Found))
				tr.add("workload.requests", float64(res.Requests))
				found := t.routes(c, g, flows, last)
				checkSame(&o, "route extraction", found, res.Found)
				o.record("discovery %s %g: %+v\n", r.name, rate, *res)
			}
		}
	}
	return o
}

// routes extracts and validates the route of every flow whose destination
// decoded its request, aside: RunDiscovery has already extracted these
// routes inside its own call, so the benchmark's extraction is a check, and
// routing.extract_ms times it. As in RunDiscovery, a route that cannot be
// extracted is not found; a found route that fails Route.Validate is a
// failed check.
func (t *traffic) routes(c calls, g *graph.Graph, flows []workload.Flow, res *broadcast.MultiResult) int {
	found := 0
	for i, fr := range res.Flows {
		f := &flows[i]
		if fr.DstSlot < 0 {
			continue
		}
		var route *routing.Route
		var err error
		c.tr.aside("routing.extract_ms", func() {
			route, err = routing.ExtractRoute(g, f.Src, f.Dst, &fr.Result, fr.ForwardCount())
		})
		if err != nil {
			continue
		}
		found++
		c.tr.aside("", func() {
			if err := route.Validate(g, f.Src, f.Dst); err != nil {
				c.o.fail("flow %d route %d→%d: %v", i, f.Src, f.Dst, err)
			}
		})
	}
	return found
}
