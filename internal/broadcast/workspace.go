package broadcast

import (
	"clustercast/internal/graph"
	"clustercast/internal/rng"
)

// Workspace owns the dense per-node state of the broadcast engine:
// epoch-stamped reception/forwarding marks, parent pointers, the per-node
// acted-payload lists and the FIFO transmission queue. One workspace run
// replaces the four maps of the legacy engine — at 10k+ nodes the map
// operations (hashing, bucket probing, incremental growth) dominate the
// whole broadcast simulation, while the dense engine touches each node's
// state by direct index and clears between broadcasts with a single epoch
// bump.
//
// A workspace is not safe for concurrent use; give each worker its own.
type Workspace struct {
	epoch     uint32
	received  []uint32 // epoch stamp: v has the packet
	forwarded []uint32 // epoch stamp: v transmitted
	actedAt   []uint32 // epoch stamp: acted[v] is current
	parent    []int    // first-delivery sender, valid when received
	acted     [][]Packet
	queue     []transmission
	res       WSResult
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
func (r *WSResult) Received(v int) bool { return r.ws.received[v] == r.ws.epoch }

// Forwarder reports whether v transmitted the packet.
func (r *WSResult) Forwarder(v int) bool { return r.ws.forwarded[v] == r.ws.epoch }

// Parent returns the neighbor whose transmission first delivered the
// packet to v (false for the source and unreached nodes).
func (r *WSResult) Parent(v int) (int, bool) {
	if v == r.Source || !r.Received(v) {
		return 0, false
	}
	return r.ws.parent[v], true
}

// Materialize converts the dense result into the legacy map-based Result,
// independent of the workspace.
func (r *WSResult) Materialize() *Result {
	res := &Result{
		Source:     r.Source,
		Latency:    r.Latency,
		Duplicates: r.Duplicates,
		Forwarders: make(map[int]bool, r.nForward),
		Received:   make(map[int]bool, r.nReceived),
		Parent:     make(map[int]int, r.nReceived),
	}
	ws, epoch := r.ws, r.ws.epoch
	for v := range ws.received {
		if ws.received[v] != epoch {
			continue
		}
		res.Received[v] = true
		if v != r.Source {
			res.Parent[v] = ws.parent[v]
		}
		if ws.forwarded[v] == epoch {
			res.Forwarders[v] = true
		}
	}
	return res
}

// ensure sizes the per-node arrays for n nodes. Stamps exposed by growth
// are from strictly older epochs (the epoch is bumped after ensure), so no
// clearing is needed outside the wrap path.
func (ws *Workspace) ensure(n int) {
	if cap(ws.received) < n {
		ws.received = make([]uint32, n)
		ws.forwarded = make([]uint32, n)
		ws.actedAt = make([]uint32, n)
		ws.parent = make([]int, n)
		ws.acted = make([][]Packet, n)
		ws.epoch = 0
	}
	ws.received = ws.received[:n]
	ws.forwarded = ws.forwarded[:n]
	ws.actedAt = ws.actedAt[:n]
	ws.parent = ws.parent[:n]
	ws.acted = ws.acted[:n]
}

// markActed records that v acted on pkt this broadcast (deduplicated, like
// the legacy per-node payload map — the lists hold one or two payloads in
// practice).
func (ws *Workspace) markActed(v int, pkt Packet) {
	if ws.actedAt[v] != ws.epoch {
		ws.actedAt[v] = ws.epoch
		ws.acted[v] = ws.acted[v][:0]
	}
	for _, q := range ws.acted[v] {
		if q == pkt {
			return
		}
	}
	ws.acted[v] = append(ws.acted[v], pkt)
}

// actedOn reports whether v already acted on pkt this broadcast.
func (ws *Workspace) actedOn(v int, pkt Packet) bool {
	if ws.actedAt[v] != ws.epoch {
		return false
	}
	for _, q := range ws.acted[v] {
		if q == pkt {
			return true
		}
	}
	return false
}

// Run simulates one broadcast with the ideal radio model, reusing the
// workspace. The result is valid until the next Run on the workspace.
func (ws *Workspace) Run(g *graph.Graph, source int, p Protocol) *WSResult {
	return ws.RunOpts(g, source, p, Options{})
}

// RunOpts is Run with an explicit radio model. Event order, protocol
// callbacks and randomness consumption are identical to the package-level
// RunOpts, so results are bit-identical.
func (ws *Workspace) RunOpts(g *graph.Graph, source int, p Protocol, opt Options) *WSResult {
	n := g.N()
	ws.ensure(n)
	ws.epoch++
	if ws.epoch == 0 { // wrapped: flush stale stamps over the full capacity
		for _, s := range [][]uint32{ws.received[:cap(ws.received)], ws.forwarded[:cap(ws.forwarded)], ws.actedAt[:cap(ws.actedAt)]} {
			for i := range s {
				s[i] = 0
			}
		}
		ws.epoch = 1
	}
	epoch := ws.epoch
	res := &ws.res
	*res = WSResult{Source: source, ws: ws}
	ws.received[source] = epoch
	ws.forwarded[source] = epoch
	res.nReceived, res.nForward = 1, 1
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
	ws.markActed(source, start)
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
		for _, v := range g.Neighbors(tx.sender) {
			if loss != nil && loss.Bool(opt.Loss) {
				continue // this copy was lost on the air
			}
			if fo != nil && (!fo.NodeUp(v, tx.time+1) || !fo.LinkUp(tx.sender, v, tx.time+1) ||
				fo.CopyLost(tx.sender, v, tx.time+1)) {
				faultDrops++
				continue // receiver down, partitioned away, or a loss burst
			}
			var forward bool
			var out Packet
			if ws.received[v] != epoch {
				ws.received[v] = epoch
				res.nReceived++
				ws.parent[v] = tx.sender
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
				if ws.actedOn(v, tx.pkt) {
					continue
				}
				forward, out = p.OnDuplicate(v, tx.sender, tx.pkt)
			}
			if forward {
				if ws.forwarded[v] != epoch {
					ws.forwarded[v] = epoch
					res.nForward++
				}
				ws.markActed(v, tx.pkt)
				ws.markActed(v, out)
				if tr != nil {
					tr.Send(tx.time+1, v, tx.sender)
				}
				queue = append(queue, transmission{sender: v, pkt: out, time: tx.time + 1})
			}
		}
	}
	ws.queue = queue
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
