package broadcast

import (
	"clustercast/internal/graph"
	"clustercast/internal/rng"
)

// Workspace owns the dense per-node state of the ideal/lossy broadcast
// engine: the one-flow runState (reception and forwarding marks, parents
// and, only once a protocol that can act on a duplicate runs, the
// acted-payload arena) and the FIFO transmission queue. One workspace
// run replaces the four maps of the legacy engine: at 10k+ nodes the map
// operations (hashing, bucket probing, incremental growth) dominate the
// whole broadcast simulation, while the dense engine touches each node's
// state by direct index and clears its marks once per run.
//
// A workspace is not safe for concurrent use; give each worker its own.
type Workspace struct {
	runState
	queue []transmission
	res   WSResult
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// WSResult is the dense, allocation-free result of a workspace broadcast.
// It is owned by the workspace and valid only until the workspace's next
// Run; call Materialize for an independent map-based Result.
type WSResult struct {
	Source     int
	Latency    int
	Duplicates int
	nReceived  int
	nForward   int
	ws         *Workspace
}

// ForwardCount returns the size of the forward node set (including the
// source), the paper's Figures 7/8 metric.
func (r *WSResult) ForwardCount() int { return r.nForward }

// ReceivedCount returns the number of nodes that received (or originated)
// the packet.
func (r *WSResult) ReceivedCount() int { return r.nReceived }

// DeliveryRatio returns the fraction of the n nodes that received the
// packet.
func (r *WSResult) DeliveryRatio(n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(r.nReceived) / float64(n)
}

// Redundancy returns the average number of redundant copies per reached
// node. The received count always includes the source, so the divisor is
// at least 1 for any simulated broadcast; the 0 return covers only the
// zero-value result.
func (r *WSResult) Redundancy() float64 {
	if r.nReceived == 0 {
		return 0
	}
	return float64(r.Duplicates) / float64(r.nReceived)
}

// Received reports whether v received the packet.
func (r *WSResult) Received(v int) bool { return r.ws.received.Has(v) }

// Forwarder reports whether v transmitted the packet.
func (r *WSResult) Forwarder(v int) bool { return r.ws.forwarded.Has(v) }

// Parent returns the neighbor whose transmission first delivered the
// packet to v (false for the source and unreached nodes).
func (r *WSResult) Parent(v int) (int, bool) {
	if v == r.Source || !r.Received(v) {
		return 0, false
	}
	return int(r.ws.parent[v]), true
}

// Materialize converts the dense result into the legacy map-based Result,
// independent of the workspace.
func (r *WSResult) Materialize() *Result {
	res := &Result{Source: r.Source, Latency: r.Latency, Duplicates: r.Duplicates}
	r.ws.fill(res, 0, r.nReceived, r.nForward)
	return res
}

// Run simulates one broadcast with the ideal radio model, reusing the
// workspace. The result is valid until the next Run on the workspace.
func (ws *Workspace) Run(g *graph.Graph, source int, p Protocol) *WSResult {
	return ws.RunOpts(g, source, p, Options{})
}

// RunOpts is Run with an explicit radio model. Event order, protocol
// callbacks and randomness consumption are identical to the package-level
// RunOpts, so results are bit-identical. For a protocol that embeds
// NoDuplicates the engine keeps no acted-payload lists and never calls
// OnDuplicate, which always declines.
func (ws *Workspace) RunOpts(g *graph.Graph, source int, p Protocol, opt Options) *WSResult {
	acts := actsOnDuplicates(p)
	ws.reset(g.N(), 1, acts)
	res := &ws.res
	*res = WSResult{Source: source, nReceived: 1, nForward: 1, ws: ws}
	var loss *rng.Stream
	if opt.Loss > 0 {
		loss = rng.NewLabeled(opt.Seed, "radio-loss")
	}
	fo := opt.Faults
	faultSkips, faultDrops := 0, 0
	tr := opt.Tracer
	if tr != nil {
		tr.SetTime(0)
	}
	start := p.Start(source)
	if tr != nil {
		tr.Send(0, source, -1)
	}
	ws.originate(source, acts, start)
	queue := append(ws.queue[:0], transmission{sender: source, pkt: start, time: 0})
	for qi := 0; qi < len(queue); qi++ {
		tx := queue[qi]
		if fo != nil && !fo.NodeUp(tx.sender, tx.time) {
			faultSkips++
			continue // the sender crashed before its slot came up
		}
		if tr != nil {
			tr.SetTime(tx.time + 1)
		}
		for _, v32 := range g.Neighbors(tx.sender) {
			v := int(v32)
			if loss != nil && loss.Bool(opt.Loss) {
				continue // this copy was lost on the air
			}
			if fo != nil && !fo.Delivers(tx.sender, v, tx.time+1) {
				faultDrops++
				continue // receiver down, partitioned away, or a loss burst
			}
			var forward bool
			var out Packet
			if !ws.received.Has(v) {
				ws.received.Add(v)
				res.nReceived++
				ws.parent[v] = int32(tx.sender)
				if tx.time+1 > res.Latency {
					res.Latency = tx.time + 1
				}
				if tr != nil {
					tr.Deliver(tx.time+1, v, tx.sender)
				}
				forward, out = p.OnReceive(v, tx.sender, tx.pkt)
			} else {
				res.Duplicates++
				if tr != nil {
					tr.Duplicate(tx.time+1, v, tx.sender)
				}
				if !acts || ws.actedOn(v, tx.pkt) {
					continue
				}
				forward, out = p.OnDuplicate(v, tx.sender, tx.pkt)
			}
			if forward {
				if ws.forward(v) {
					res.nForward++
				}
				if acts {
					ws.markActed(v, tx.pkt)
					ws.markActed(v, out)
				}
				if tr != nil {
					tr.Send(tx.time+1, v, tx.sender)
				}
				queue = append(queue, transmission{sender: v, pkt: out, time: tx.time + 1})
			}
		}
	}
	ws.queue = queue
	ws.release()
	mRuns.Inc()
	mTransmissions.Add(int64(len(queue) - faultSkips))
	mDeliveries.Add(int64(res.nReceived - 1))
	mDuplicates.Add(int64(res.Duplicates))
	if fo != nil {
		mFaultSkips.Add(int64(faultSkips))
		mFaultDrops.Add(int64(faultDrops))
	}
	return res
}

// RunDESOpts is RunOpts.
//
// Deprecated: the FIFO queue is the only ideal- and lossy-radio engine;
// call RunOpts.
func (ws *Workspace) RunDESOpts(g *graph.Graph, source int, p Protocol, opt Options) *WSResult {
	return ws.RunOpts(g, source, p, opt)
}
