package main

import (
	"clustercast/internal/broadcast"
	"clustercast/internal/coverage"
	"clustercast/internal/experiment"
	"clustercast/internal/graph"
)

// radio is the radio-10k workload: one n=10,000, d=18 graph carrying
// broadcasts under every radio model — ideal, i.i.d. loss, slotted MAC and
// the timed counter-based scheme — plus one wire-protocol construction.
// Flooding and the SI-CDS 2.5-hop backbone relay from a few sources each,
// so that no engine takes most of the op.
type radio struct {
	n, sources int
	seed       uint64
	workers    int
	ws         *experiment.Workspace
}

// Radio-model parameters: the lossy ablation's middle loss rate, the
// traffic figures' contention window, and the storm ablation's
// counter-based scheme.
const (
	radioLoss   = 0.1
	radioJitter = 3
)

var counter3 = broadcast.CounterBased{Threshold: 3, MaxDelay: 4, Seed: 1}

func newRadio(cfg config) runner {
	r := &radio{n: 10_000, sources: 3, seed: cfg.seed}
	if cfg.tiny {
		r.n = 500
	}
	if cfg.workers > 0 {
		r.workers = cfg.workers
	}
	r.ws = experiment.NewWorkspace()
	return r
}

func (r *radio) op(tr *tracer) outcome {
	configure(1)
	experiment.SetBuildWorkers(r.workers)
	o := newOutcome()
	c := calls{tr: tr, o: &o}
	sc := experiment.DefaultScenario(r.n, 18, r.seed)
	ws := r.ws
	nw, rs, ok := c.sampleWS(ws, sc, "radio", 0)
	if !ok {
		return o
	}
	g := nw.G
	cl := c.elect(ws, g)
	c.digest(ws, g, cl, coverage.Hop25)
	si := spanV(tr, "backbone.select", func() *graph.Bitset { return ws.Backbone.StaticNodes(&ws.Builder, cl, noOpts) })
	c.backboneSize(si.Count(), r.n)
	checkCDS(tr, &o, "SI-CDS", g, si, si.Count())

	wire := c.wire(g, coverage.Hop25)
	o.record("wire: %s backbone=%d\n", wire.Counters.String(), len(wire.Backbone))
	for k := 0; k < r.sources; k++ {
		src := rs.Intn(r.n)
		seed := sc.Seed ^ uint64(k)
		for _, p := range []broadcast.Protocol{broadcast.Flooding{}, broadcast.StaticCDSBits{Set: si}} {
			ideal := c.ideal(ws.Bcast, g, src, p)
			checkDelivered(&o, p.Name(), ideal.Received, r.n)
			lossy := c.lossy(ws.Bcast, g, src, p, broadcast.Options{Loss: radioLoss, Seed: seed})
			mac := c.mac(g, src, p, broadcast.MACOptions{Jitter: radioJitter, Seed: seed}, nil)
			o.record("%s from %d: ideal %+v lossy %+v mac %s\n", p.Name(), src, ideal, lossy, summarizeMAC(mac, r.n))
		}
		timed := c.timed(g, src, counter3)
		o.record("%s from %d: %+v\n", counter3.Name(), src, summarize(timed, r.n))
	}
	return o
}
