package broadcast

import (
	"slices"

	"clustercast/internal/des"
	"clustercast/internal/graph"
	"clustercast/internal/rng"
)

// macTx is a calendar entry of the MAC engine: one scheduled
// transmission. The slot is supplied by the wheel.
type macTx struct {
	sender  int32
	trigger int32 // upstream sender that caused this relay (-1: source)
	pkt     Packet
}

// MACWorkspace owns the dense state of the slotted-MAC engine. Scheduled
// transmissions wait in wheel buckets: empty slots inside a contention
// window cost one bitmap word scan, and the quiescent tail costs nothing
// at all. Receiver-side collision resolution is a fan-out into per-slot
// epoch-stamped copy counters — only the copy multiset matters at a
// receiver (≥2 copies collide regardless of order; a single copy's
// sender is the minimum batch index) — and receivers commit in ascending
// ID order, so protocol callbacks, jitter draws and the trace stream are
// a pure function of the inputs. A scalar slot-map loop is kept in the
// tests as the reference (runMACOracle).
//
// Not safe for concurrent use; give each worker its own.
type MACWorkspace struct {
	wheel des.Wheel[macTx]

	// Per-run epoch-stamped node state (as in Workspace).
	epoch     uint32
	received  []uint32
	forwarded []uint32
	actedAt   []uint32
	parent    []int32
	acted     [][]Packet

	// Per-slot epoch-stamped receiver state.
	slotEpoch uint32
	stamp     []uint32
	cnt       []int32 // copies heard this slot
	first     []int32 // minimum batch index heard (the decoded copy)
	touched   []int32 // receivers touched this slot (commit order after sort)

	jitter rng.Stream // reseeded per run (the alloc-free NewLabeled path)
	res    MACWSResult
}

// NewMACWorkspace returns an empty workspace; buffers grow on first use.
func NewMACWorkspace() *MACWorkspace { return &MACWorkspace{} }

// MACWSResult is the dense, allocation-free result of a MAC broadcast,
// owned by the workspace and valid until its next Run. Call Materialize
// for an independent CollisionResult.
type MACWSResult struct {
	Source     int
	Latency    int
	Duplicates int
	Collisions int
	LostCopies int
	// Transmissions counts the transmissions that actually went on the
	// air (calendar events drained, minus crashed senders) — the event
	// count of the run.
	Transmissions int
	nReceived     int
	nForward      int
	ws            *MACWorkspace
}

// ForwardCount returns the size of the forward node set (including the
// source).
func (r *MACWSResult) ForwardCount() int { return r.nForward }

// ReceivedCount returns the number of nodes that received (or
// originated) the packet.
func (r *MACWSResult) ReceivedCount() int { return r.nReceived }

// DeliveryRatio returns the fraction of the n nodes that received the
// packet.
func (r *MACWSResult) DeliveryRatio(n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(r.nReceived) / float64(n)
}

// Materialize converts the dense result into a map-based
// CollisionResult, independent of the workspace.
func (r *MACWSResult) Materialize() *CollisionResult {
	res := &CollisionResult{Result: Result{
		Source:     r.Source,
		Latency:    r.Latency,
		Duplicates: r.Duplicates,
		Forwarders: make(map[int]bool, r.nForward),
		Received:   make(map[int]bool, r.nReceived),
		Parent:     make(map[int]int, r.nReceived),
	}}
	res.Collisions = r.Collisions
	res.LostCopies = r.LostCopies
	ws, epoch := r.ws, r.ws.epoch
	for v := range ws.received {
		if ws.received[v] != epoch {
			continue
		}
		res.Received[v] = true
		if v != r.Source {
			res.Parent[v] = int(ws.parent[v])
		}
	}
	for v := range ws.forwarded {
		if ws.forwarded[v] == epoch {
			res.Forwarders[v] = true
		}
	}
	return res
}

// ensure sizes the arrays and bumps the run epoch (wrap-flushing stale
// stamps).
func (mw *MACWorkspace) ensure(n int) {
	if cap(mw.received) < n {
		mw.received = make([]uint32, n)
		mw.forwarded = make([]uint32, n)
		mw.actedAt = make([]uint32, n)
		mw.parent = make([]int32, n)
		mw.acted = make([][]Packet, n)
		mw.stamp = make([]uint32, n)
		mw.cnt = make([]int32, n)
		mw.first = make([]int32, n)
		mw.epoch, mw.slotEpoch = 0, 0
	}
	mw.received = mw.received[:n]
	mw.forwarded = mw.forwarded[:n]
	mw.actedAt = mw.actedAt[:n]
	mw.parent = mw.parent[:n]
	mw.acted = mw.acted[:n]
	mw.stamp = mw.stamp[:n]
	mw.cnt = mw.cnt[:n]
	mw.first = mw.first[:n]
	mw.epoch++
	if mw.epoch == 0 {
		for _, s := range [][]uint32{mw.received[:cap(mw.received)], mw.forwarded[:cap(mw.forwarded)], mw.actedAt[:cap(mw.actedAt)]} {
			for i := range s {
				s[i] = 0
			}
		}
		mw.epoch = 1
	}
}

// bumpSlot advances the per-slot receiver stamp (wrap-flushing).
func (mw *MACWorkspace) bumpSlot() {
	mw.slotEpoch++
	if mw.slotEpoch == 0 {
		s := mw.stamp[:cap(mw.stamp)]
		for i := range s {
			s[i] = 0
		}
		mw.slotEpoch = 1
	}
}

// markActed / actedOn mirror Workspace's per-node payload lists.
func (mw *MACWorkspace) markActed(v int, pkt Packet) {
	if mw.actedAt[v] != mw.epoch {
		mw.actedAt[v] = mw.epoch
		mw.acted[v] = mw.acted[v][:0]
	}
	for _, q := range mw.acted[v] {
		if q == pkt {
			return
		}
	}
	mw.acted[v] = append(mw.acted[v], pkt)
}

func (mw *MACWorkspace) actedOn(v int, pkt Packet) bool {
	if mw.actedAt[v] != mw.epoch {
		return false
	}
	for _, q := range mw.acted[v] {
		if q == pkt {
			return true
		}
	}
	return false
}

// hearCopy records one copy of batch index bi reaching receiver v this
// slot, returning true when v is newly touched.
func (mw *MACWorkspace) hearCopy(v int, bi int32) bool {
	if mw.stamp[v] != mw.slotEpoch {
		mw.stamp[v] = mw.slotEpoch
		mw.cnt[v] = 1
		mw.first[v] = bi
		return true
	}
	mw.cnt[v]++
	if bi < mw.first[v] {
		mw.first[v] = bi
	}
	return false
}

// Run simulates one broadcast under the slotted collision model (see
// RunMAC), reusing the workspace. The result is valid until the next Run.
func (mw *MACWorkspace) Run(g *graph.Graph, source int, p Protocol, opt MACOptions) *MACWSResult {
	n := g.N()
	mw.ensure(n)
	epoch := mw.epoch
	res := &mw.res
	*res = MACWSResult{Source: source, ws: mw}
	mw.received[source] = epoch
	mw.forwarded[source] = epoch
	res.nReceived, res.nForward = 1, 1

	mw.jitter.SeedLabeled(opt.Seed, "mac-jitter")
	draw := func() int {
		if opt.Jitter <= 0 {
			return 0
		}
		return mw.jitter.Intn(opt.Jitter + 1)
	}

	tr := opt.Tracer
	if tr != nil {
		tr.SetTime(0)
	}
	start := p.Start(source)
	mw.markActed(source, start)

	w := &mw.wheel
	w.Reset(opt.Jitter + 2) // forwards land in [t+1, t+1+Jitter]
	w.Push(0, macTx{sender: int32(source), trigger: -1, pkt: start})

	fo := opt.Faults

	for w.Len() > 0 {
		t := w.OpenSlot()
		batch := w.Bucket() // MAC never pushes into its own slot
		if fo != nil {
			// Crashed forwarders stay silent; their slot reservation lapses.
			live := batch[:0]
			for _, x := range batch {
				if fo.NodeUp(int(x.sender), t) {
					live = append(live, x)
				}
			}
			batch = live
		}
		if tr != nil {
			tr.SetTime(t + 1)
			for _, x := range batch {
				tr.Send(t, int(x.sender), int(x.trigger))
			}
		}
		res.Transmissions += len(batch)

		// Receiver-side resolution: count copies per node, remembering
		// the minimum batch index (the first copy heard).
		mw.bumpSlot()
		mw.touched = mw.touched[:0]
		for bi, x := range batch {
			for _, v := range g.Neighbors(int(x.sender)) {
				if fo != nil && (!fo.NodeUp(v, t+1) || !fo.LinkUp(int(x.sender), v, t+1) ||
					fo.CopyLost(int(x.sender), v, t+1)) {
					continue // the copy faded before reaching v
				}
				if mw.hearCopy(v, int32(bi)) {
					mw.touched = append(mw.touched, int32(v))
				}
			}
		}
		slices.Sort(mw.touched)

		// Commit: receivers in ascending ID order.
		for _, v32 := range mw.touched {
			v := int(v32)
			if mw.cnt[v] > 1 {
				res.Collisions++
				res.LostCopies += int(mw.cnt[v])
				if tr != nil {
					tr.Collision(t+1, v)
				}
				continue // all copies destroyed at this receiver
			}
			x := batch[mw.first[v]]
			var forward bool
			var out Packet
			if mw.received[v] != epoch {
				mw.received[v] = epoch
				res.nReceived++
				mw.parent[v] = x.sender
				if t+1 > res.Latency {
					res.Latency = t + 1
				}
				if tr != nil {
					tr.Deliver(t+1, v, int(x.sender))
				}
				forward, out = p.OnReceive(v, int(x.sender), x.pkt)
			} else {
				res.Duplicates++
				if tr != nil {
					tr.Duplicate(t+1, v, int(x.sender))
				}
				if mw.actedOn(v, x.pkt) {
					continue
				}
				forward, out = p.OnDuplicate(v, int(x.sender), x.pkt)
			}
			if forward {
				if mw.forwarded[v] != epoch {
					mw.forwarded[v] = epoch
					res.nForward++
				}
				mw.markActed(v, x.pkt)
				mw.markActed(v, out)
				w.Push(t+1+draw(), macTx{sender: int32(v), trigger: x.sender, pkt: out})
			}
		}
		w.CloseSlot()
	}
	w.FoldStats()
	mRuns.Inc()
	mTransmissions.Add(int64(res.Transmissions))
	mDeliveries.Add(int64(res.nReceived - 1))
	mDuplicates.Add(int64(res.Duplicates))
	mMACCollisions.Add(int64(res.Collisions))
	mMACLostCopies.Add(int64(res.LostCopies))
	return res
}

// RunMACDES is RunMAC.
//
// Deprecated: the calendar engine is the only slotted-MAC engine; call
// RunMAC.
func RunMACDES(g *graph.Graph, source int, p Protocol, opt MACOptions) *CollisionResult {
	return RunMAC(g, source, p, opt)
}
