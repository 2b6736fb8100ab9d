package main

import (
	"fmt"

	"clustercast/internal/broadcast"
	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/dynamicb"
	"clustercast/internal/experiment"
	"clustercast/internal/graph"
	"clustercast/internal/rng"
	"clustercast/internal/sim"
	"clustercast/internal/topology"
	"clustercast/internal/workload"
)

// calls wraps the public entry points of each layer that the workloads
// use. Every wrapper makes exactly the production call inside its layer's
// span; when the tracer is on it also runs the call's twins aside (the
// calendar engine of a scalar engine call, or a sharded call at one and at
// two workers) and checks that they agree with it. Output checks run aside
// in every run.
type calls struct {
	tr *tracer
	o  *outcome
	// twinWS, when set, is the workspace on which a traced sampleWS times
	// the unit-disk band build at one and two workers.
	twinWS *experiment.Workspace
}

func digestLayer(mode coverage.Mode) string {
	if mode == coverage.Hop3 {
		return "coverage.digest3"
	}
	return "coverage.digest25"
}

// skipped records a replicate whose topology could not be sampled.
func (c calls) skipped(label string, rep int) {
	c.o.fail("%s rep %d skipped: %v", label, rep, experiment.TakeSampleError())
}

func (c calls) sampleWS(ws *experiment.Workspace, sc experiment.Scenario, label string, rep int) (nw *topology.Network, r *rng.Stream, ok bool) {
	c.tr.span("topology.sample", func() { nw, r, ok = sc.SampleWS(ws, label, rep) })
	if !ok {
		c.skipped(label, rep)
		return nw, r, ok
	}
	if c.twinWS != nil {
		prev := experiment.BuildWorkers()
		c.tr.twins("topology.build", func(w int) {
			experiment.SetBuildWorkers(w)
			twin, _, twinOK := sc.SampleWS(c.twinWS, label, rep)
			experiment.SetBuildWorkers(prev)
			if !twinOK {
				c.o.fail("band-build twin at %d workers found no topology", w)
				return
			}
			checkSame(c.o, "band-build twin edges", twin.G.M(), nw.G.M())
		})
	}
	return nw, r, ok
}

func (c calls) sample(sc experiment.Scenario, label string, rep int) (nw *topology.Network, r *rng.Stream, ok bool) {
	c.tr.span("topology.sample", func() { nw, r, ok = sc.Sample(label, rep) })
	if !ok {
		c.skipped(label, rep)
	}
	return nw, r, ok
}

// elect runs the workspace election (experiment.Workspace.Elect), or the
// package-level cluster.LowestID when ws is nil.
func (c calls) elect(ws *experiment.Workspace, g *graph.Graph) *cluster.Clustering {
	cl := spanV(c.tr, "cluster.elect", func() *cluster.Clustering {
		if ws == nil {
			return cluster.LowestID(g)
		}
		return ws.Elect(g)
	})
	c.tr.add("cluster.heads", float64(len(cl.Heads)))
	c.tr.add("cluster.nodes", float64(g.N()))
	checkClustering(c.tr, c.o, "election", g, cl)
	return cl
}

func (c calls) digest(ws *experiment.Workspace, g *graph.Graph, cl *cluster.Clustering, mode coverage.Mode) {
	layer := digestLayer(mode)
	c.tr.spanAlloc(layer, layer+"_alloc", func() { ws.Digest(g, cl, mode) })
}

func (c calls) backboneSize(size, n int) {
	c.tr.add("backbone.size", float64(size))
	c.tr.add("backbone.nodes", float64(n))
}

func (c calls) mocdsSize(size, n int) {
	c.tr.add("mocds.size", float64(size))
	c.tr.add("mocds.nodes", float64(n))
}

// dynInit builds the dynamic-backbone protocol on a reusing workspace.
func (c calls) dynInit(dws *dynamicb.Workspace, g *graph.Graph, cl *cluster.Clustering, mode coverage.Mode) (p *dynamicb.Protocol) {
	c.tr.spanAlloc("dynamicb.init", "dynamicb.init_alloc", func() { p = dws.NewWith(g, cl, mode) })
	return p
}

// dynBroadcast runs one ideal-radio dynamic-backbone broadcast and checks
// Theorem 2: it reaches every node.
func (c calls) dynBroadcast(p *dynamicb.Protocol, src, n int) int {
	res := spanV(c.tr, "dynamicb.broadcast", func() *broadcast.WSResult { return p.BroadcastWS(src) })
	checkDelivered(c.o, "dynamic backbone", res.ReceivedCount(), n)
	c.tr.add("dynamicb.forward", float64(res.ForwardCount()))
	c.tr.add("dynamicb.nodes", float64(n))
	return res.ForwardCount()
}

// ideal runs one ideal-radio broadcast on the workspace engine
// (Workspace.RunOpts); its twin is Workspace.RunDESOpts.
func (c calls) ideal(bws *broadcast.Workspace, g *graph.Graph, src int, p broadcast.Protocol) summary {
	res := spanV(c.tr, "broadcast.ideal", func() *broadcast.WSResult {
		return bws.RunOpts(g, src, p, broadcast.Options{})
	})
	s := summarizeWS(res, g.N())
	c.tr.add("broadcast.ideal_dups", float64(res.Duplicates))
	c.tr.add("broadcast.ideal_received", float64(res.ReceivedCount()))
	if c.tr.on {
		c.tr.aside("", func() {
			var twin *broadcast.WSResult
			c.tr.aside("broadcast.ideal_des_ms", func() { twin = bws.RunDESOpts(g, src, p, broadcast.Options{}) })
			checkSame(c.o, "ideal-radio calendar engine", summarizeWS(twin, g.N()), s)
		})
	}
	return s
}

// lossy runs one broadcast under i.i.d. link loss on the workspace engine;
// its twin is Workspace.RunDESOpts.
func (c calls) lossy(bws *broadcast.Workspace, g *graph.Graph, src int, p broadcast.Protocol, opt broadcast.Options) summary {
	res := spanV(c.tr, "broadcast.lossy", func() *broadcast.WSResult { return bws.RunOpts(g, src, p, opt) })
	s := summarizeWS(res, g.N())
	if c.tr.on {
		c.tr.aside("", func() {
			var twin *broadcast.WSResult
			c.tr.aside("broadcast.lossy_des_ms", func() { twin = bws.RunDESOpts(g, src, p, opt) })
			checkSame(c.o, "lossy calendar engine", summarizeWS(twin, g.N()), s)
		})
	}
	return s
}

// mac runs one single-source slotted-MAC broadcast (broadcast.RunMAC); its
// twins are RunMACDES, and RunMACDES with its receiver fan-out
// (MACOptions.Workers) at one and at two workers. fresh, when not nil,
// gives each twin its own protocol instance for protocols that keep
// per-broadcast state.
func (c calls) mac(g *graph.Graph, src int, p broadcast.Protocol, opt broadcast.MACOptions, fresh func() broadcast.Protocol) *broadcast.CollisionResult {
	res := spanV(c.tr, "broadcast.mac", func() *broadcast.CollisionResult { return broadcast.RunMAC(g, src, p, opt) })
	c.tr.add("broadcast.mac_lost", float64(res.LostCopies))
	c.tr.add("broadcast.mac_copies", float64(res.LostCopies+len(res.Received)-1+res.Duplicates))
	if !c.tr.on {
		return res
	}
	proto := func() broadcast.Protocol {
		if fresh != nil {
			return fresh()
		}
		return p
	}
	want := summarizeMAC(res, g.N())
	c.tr.aside("", func() {
		tp := proto()
		var twin *broadcast.CollisionResult
		c.tr.aside("broadcast.mac_des_ms", func() { twin = broadcast.RunMACDES(g, src, tp, opt) })
		checkSame(c.o, "slotted-MAC calendar engine", summarizeMAC(twin, g.N()), want)
	})
	c.tr.twins("broadcast.mac_des", func(w int) {
		sharded := opt
		sharded.Workers = w
		checkSame(c.o, "sharded MAC twin", summarizeMAC(broadcast.RunMACDES(g, src, proto(), sharded), g.N()), want)
	})
	return res
}

// timed runs one back-off broadcast (broadcast.RunTimed); its twin is
// RunTimedDES.
func (c calls) timed(g *graph.Graph, src int, p broadcast.TimedProtocol) *broadcast.Result {
	res := spanV(c.tr, "broadcast.timed", func() *broadcast.Result { return broadcast.RunTimed(g, src, p) })
	if c.tr.on {
		c.tr.aside("", func() {
			var twin *broadcast.Result
			c.tr.aside("broadcast.timed_des_ms", func() { twin = broadcast.RunTimedDES(g, src, p, broadcast.TimedOptions{}) })
			checkSame(c.o, "timed calendar engine", summarize(twin, g.N()), summarize(res, g.N()))
		})
	}
	return res
}

// wire runs the distributed construction protocol (sim.Run) and checks
// that the backbone it builds is a connected dominating set; its twin is
// sim.RunDES.
func (c calls) wire(g *graph.Graph, mode coverage.Mode) *sim.Outcome {
	out := spanV(c.tr, "sim.wire", func() *sim.Outcome { return sim.Run(g, mode) })
	c.tr.add("sim.messages", float64(out.Counters.Total()))
	c.tr.add("sim.nodes", float64(g.N()))
	c.tr.aside("", func() {
		if !g.IsCDS(out.Backbone) {
			c.o.fail("wire protocol: backbone is not a connected dominating set")
		}
		if c.tr.on {
			var twin *sim.Outcome
			c.tr.aside("sim.wire_des_ms", func() { twin = sim.RunDES(g, mode) })
			checkSame(c.o, "wire-protocol calendar engine", summarizeWire(twin), summarizeWire(out))
		}
	})
	return out
}

// engine is the multi-source MAC engine handed to workload.RunTraffic and
// RunDiscovery: broadcast.RunMACMulti, the CLI default, with its twin
// RunMACMultiDES. It keeps the last result for route extraction.
func (c calls) engine(last **broadcast.MultiResult) workload.Engine {
	return func(g *graph.Graph, flows []broadcast.MultiFlow, opt broadcast.MACOptions) *broadcast.MultiResult {
		var res *broadcast.MultiResult
		c.tr.spanAlloc("broadcast.mac_multi", "broadcast.mac_multi_alloc", func() {
			res = broadcast.RunMACMulti(g, flows, opt)
		})
		*last = res
		if !c.tr.on {
			return res
		}
		c.tr.add("broadcast.mac_multi_runs", 1)
		c.tr.add("broadcast.mac_multi_slots", float64(res.Makespan))
		c.tr.add("broadcast.mac_multi_collisions", float64(res.SharedCollisions))
		c.tr.add("broadcast.mac_multi_cross", float64(res.CrossCollisions))
		for _, f := range res.Flows {
			c.tr.add("broadcast.mac_multi_lost", float64(f.LostCopies))
			c.tr.add("broadcast.mac_multi_copies", float64(f.LostCopies+len(f.Received)-1+f.Duplicates))
		}
		c.tr.aside("", func() {
			var twin *broadcast.MultiResult
			c.tr.aside("broadcast.mac_multi_des_ms", func() { twin = broadcast.RunMACMultiDES(g, flows, opt) })
			checkSame(c.o, "multi-source calendar engine", summarizeMulti(twin, g.N()), summarizeMulti(res, g.N()))
		})
		return res
	}
}

type fnv uint64

func newFNV() fnv { return 14695981039346656037 }

func (h *fnv) add(vs ...int) {
	for _, v := range vs {
		*h = (*h ^ fnv(uint64(v))) * 1099511628211
	}
}

// summary is an engine result reduced to its counts plus an FNV-1a hash
// over every node's reception, forwarding and parent.
type summary struct {
	Forward, Received, Duplicates, Latency int
	Hash                                   fnv
}

func summarizeWS(r *broadcast.WSResult, n int) summary {
	s := summary{Forward: r.ForwardCount(), Received: r.ReceivedCount(), Duplicates: r.Duplicates, Latency: r.Latency, Hash: newFNV()}
	for v := 0; v < n; v++ {
		p, ok := r.Parent(v)
		s.Hash.add(b2i(r.Received(v)), b2i(r.Forwarder(v)), p, b2i(ok))
	}
	return s
}

func summarize(r *broadcast.Result, n int) summary {
	s := summary{Forward: len(r.Forwarders), Received: len(r.Received), Duplicates: r.Duplicates, Latency: r.Latency, Hash: newFNV()}
	for v := 0; v < n; v++ {
		p, ok := r.Parent[v]
		s.Hash.add(b2i(r.Received[v]), b2i(r.Forwarders[v]), p, b2i(ok))
	}
	return s
}

func summarizeMAC(r *broadcast.CollisionResult, n int) string {
	return fmt.Sprintf("%+v collisions=%d lost=%d", summarize(&r.Result, n), r.Collisions, r.LostCopies)
}

func summarizeMulti(r *broadcast.MultiResult, n int) string {
	h := newFNV()
	h.add(r.SharedCollisions, r.CrossCollisions, r.Transmissions, r.Makespan)
	for _, f := range r.Flows {
		s := summarize(&f.Result, n)
		h.add(s.Forward, s.Received, s.Duplicates, s.Latency, int(s.Hash), f.Collisions, f.LostCopies, f.Start, f.DstSlot)
	}
	return fmt.Sprint(uint64(h))
}

func summarizeWire(out *sim.Outcome) string {
	h := newFNV()
	h.add(out.Head...)
	h.add(out.Counters.ActivePerRound...)
	return fmt.Sprintf("%s backbone=%d heads=%d hash=%d", out.Counters.String(), len(out.Backbone), len(out.Heads), uint64(h))
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
