package broadcast

import (
	"math/bits"

	"clustercast/internal/des"
	"clustercast/internal/graph"
	"clustercast/internal/rng"
)

// MultiMACWorkspace owns the dense state of the multi-source MAC engine.
// Transmissions wait in wheel buckets (flow starts beyond the jitter
// window park in the wheel's far heap and promote in push order, so a
// slot's batch order is push order). Per-(flow, node) state lives in
// flat arrays indexed by the cell fi*n+v: epoch-stamped reception and
// forwarding marks, int32 parents, and the acted-payload lists, kept
// inline in one arena as per-cell linked lists. Each slot's receivers
// are marked in a two-level bitmap and committed in ascending ID order
// by walking it; a receiver keeps its copy count, its first copy, and a
// list of its further copies from other flows in a per-slot arena,
// because cross-flow collision attribution needs the flow of every
// destroyed copy (further copies of the first copy's flow are only
// counted). Each flow's map-based Result is filled once, presized, when
// the run ends. A one-flow run is the single-source engine (RunMAC).
//
// After a warm-up run on the same inputs, a reused workspace allocates
// only the returned MultiResult and its maps
// (TestMultiMACSteadyStateAllocs).
// Not safe for concurrent use; give each worker its own.
type MultiMACWorkspace struct {
	wheel des.Wheel[multiTx]
	n     int // nodes of the current run

	// Per-run epoch-stamped (flow, node) cells, indexed fi*n + v.
	epoch     uint32
	received  []uint32 // epoch stamp: the flow reached the node
	forwarded []uint32 // epoch stamp: the node relayed the flow (or is its source)
	actedAt   []uint32 // epoch stamp: actedHead is current
	actedHead []int32  // 1 + arena index of the cell's newest acted payload (0: none)
	parent    []int32  // first-delivery sender, valid when received
	acted     []actedPayload

	// Per-flow state.
	jitters   []rng.Stream
	nReceived []int32
	nForward  []int32
	lostMark  []uint32 // collision stamp: the flow already counted this collision
	lostSeq   uint32

	// Per-slot receiver state, valid for v while v's touch bit is set.
	touch    []uint64 // receivers heard from this slot
	touchSum []uint64 // nonzero words of touch
	cnt      []int32  // copies heard this slot
	first    []int32  // batch index of the first copy heard
	more     []int32  // 1 + index in extra of the newest listed copy (0: none)
	extra    []copyLink
}

// actedPayload is one entry of a cell's acted-payload list.
type actedPayload struct {
	pkt  Packet
	next int32 // 1 + arena index of the cell's previous entry (0: end)
}

// copyLink is one further copy, of a flow other than the first copy's,
// heard by a receiver in the open slot.
type copyLink struct {
	bi   int32 // batch index of the copy
	next int32 // 1 + index of the receiver's previous further copy (0: end)
}

// NewMultiMACWorkspace returns an empty workspace; buffers grow on first
// use.
func NewMultiMACWorkspace() *MultiMACWorkspace { return &MultiMACWorkspace{} }

// ensure sizes the arrays for n nodes and nflows flows and bumps the run
// epoch (wrap-flushing stale stamps). Cells exposed by reslicing carry
// stamps from strictly older epochs, so no clearing is needed outside
// the wrap path.
func (mw *MultiMACWorkspace) ensure(n, nflows int) {
	mw.n = n
	cells := n * nflows
	if cap(mw.received) < cells {
		mw.received = make([]uint32, cells)
		mw.forwarded = make([]uint32, cells)
		mw.actedAt = make([]uint32, cells)
		mw.actedHead = make([]int32, cells)
		mw.parent = make([]int32, cells)
		mw.epoch = 0
	}
	mw.received = mw.received[:cells]
	mw.forwarded = mw.forwarded[:cells]
	mw.actedAt = mw.actedAt[:cells]
	mw.actedHead = mw.actedHead[:cells]
	mw.parent = mw.parent[:cells]
	if cap(mw.acted) < n {
		// A one-flow flood acts once per node; presizing spares RunMAC's
		// fresh workspace the arena's growth copies.
		mw.acted = make([]actedPayload, 0, n)
	}
	mw.acted = mw.acted[:0]
	mw.epoch++
	if mw.epoch == 0 {
		for _, s := range [][]uint32{mw.received[:cap(mw.received)], mw.forwarded[:cap(mw.forwarded)], mw.actedAt[:cap(mw.actedAt)]} {
			clear(s)
		}
		mw.epoch = 1
	}

	if cap(mw.jitters) < nflows {
		mw.jitters = make([]rng.Stream, nflows)
		mw.nReceived = make([]int32, nflows)
		mw.nForward = make([]int32, nflows)
		mw.lostMark = make([]uint32, nflows)
		mw.lostSeq = 0
	}
	mw.jitters = mw.jitters[:nflows]
	mw.nReceived = mw.nReceived[:nflows]
	mw.nForward = mw.nForward[:nflows]
	mw.lostMark = mw.lostMark[:nflows]

	if cap(mw.cnt) < n {
		mw.cnt = make([]int32, n)
		mw.first = make([]int32, n)
		mw.more = make([]int32, n)
	}
	mw.cnt = mw.cnt[:n]
	mw.first = mw.first[:n]
	mw.more = mw.more[:n]
	// The touch bitmaps are all-zero between slots (the commit walk
	// clears every bit it visits), so growing them is the only upkeep.
	words := (n + 63) >> 6
	if cap(mw.touch) < words {
		mw.touch = make([]uint64, words)
		mw.touchSum = make([]uint64, (words+63)>>6)
	}
	mw.touch = mw.touch[:words]
	mw.touchSum = mw.touchSum[:(words+63)>>6]
}

// markActed records that cell c acted on pkt this run (deduplicated).
func (mw *MultiMACWorkspace) markActed(c int, pkt Packet) {
	if mw.actedOn(c, pkt) {
		return
	}
	if mw.actedAt[c] != mw.epoch {
		mw.actedAt[c] = mw.epoch
		mw.actedHead[c] = 0
	}
	mw.acted = append(mw.acted, actedPayload{pkt: pkt, next: mw.actedHead[c]})
	mw.actedHead[c] = int32(len(mw.acted))
}

// actedOn reports whether cell c already acted on pkt this run.
func (mw *MultiMACWorkspace) actedOn(c int, pkt Packet) bool {
	if mw.actedAt[c] != mw.epoch {
		return false
	}
	for i := mw.actedHead[c]; i != 0; i = mw.acted[i-1].next {
		if mw.acted[i-1].pkt == pkt {
			return true
		}
	}
	return false
}

// hear records one copy of batch index bi reaching receiver v this slot.
// Batch indices arrive in ascending order, so first is the minimum. A
// further copy of the first copy's flow is only counted; commit charges
// every counted but unlisted copy to that flow.
func (mw *MultiMACWorkspace) hear(batch []multiTx, v int, bi int32) {
	w, b := v>>6, uint64(1)<<uint(v&63)
	if mw.touch[w]&b == 0 {
		if mw.touch[w] == 0 {
			mw.touchSum[w>>6] |= 1 << uint(w&63)
		}
		mw.touch[w] |= b
		mw.cnt[v] = 1
		mw.first[v] = bi
		mw.more[v] = 0
		return
	}
	mw.cnt[v]++
	if batch[bi].flow == batch[mw.first[v]].flow {
		return
	}
	mw.extra = append(mw.extra, copyLink{bi: bi, next: mw.more[v]})
	mw.more[v] = int32(len(mw.extra))
}

// Run simulates concurrently active broadcasts under the slotted
// collision model; see RunMACMulti for the semantics. The result is
// independent of the workspace, which may be reused at once.
func (mw *MultiMACWorkspace) Run(g *graph.Graph, flows []MultiFlow, opt MACOptions) *MultiResult {
	res := mw.run(g, flows, opt)
	if len(flows) > 0 { // an empty workload folds nothing
		res.fold()
	}
	return res
}

// run is Run without the metrics fold.
func (mw *MultiMACWorkspace) run(g *graph.Graph, flows []MultiFlow, opt MACOptions) *MultiResult {
	res := &MultiResult{Flows: make([]*FlowResult, len(flows))}
	if len(flows) == 0 {
		return res
	}
	n := g.N()
	mw.ensure(n, len(flows))
	epoch := mw.epoch
	frs := make([]FlowResult, len(flows))

	tr := opt.Tracer
	if tr != nil {
		tr.SetTime(0)
	}
	w := &mw.wheel
	w.Reset(opt.Jitter + 2) // forwards land in [t+1, t+1+Jitter]
	for i := range flows {
		f := &flows[i]
		fr := &frs[i]
		fr.Source, fr.Start, fr.DstSlot = f.Src, f.Start, -1
		if f.Dst == f.Src {
			fr.DstSlot = f.Start
		}
		res.Flows[i] = fr
		mw.jitters[i].SeedLabeled(f.Seed, "mac-jitter")
		c := i*n + f.Src
		mw.received[c] = epoch
		mw.forwarded[c] = epoch
		mw.nReceived[i], mw.nForward[i] = 1, 1
		start := f.Proto.Start(f.Src)
		mw.markActed(c, start)
		w.Push(f.Start, multiTx{flow: int32(i), sender: int32(f.Src), trigger: -1, pkt: start})
	}

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

		// Receiver-side resolution over the shared medium: every copy of
		// every flow counts toward the same per-receiver tally.
		mw.extra = mw.extra[:0]
		for bi, x := range batch {
			for _, v := range g.Neighbors(int(x.sender)) {
				if fo != nil && (!fo.NodeUp(v, t+1) || !fo.LinkUp(int(x.sender), v, t+1) ||
					fo.CopyLost(int(x.sender), v, t+1)) {
					continue // the copy faded before reaching v
				}
				mw.hear(batch, v, int32(bi))
			}
		}

		// Commit receivers in ascending ID order, clearing the bitmap as
		// the walk passes.
		for si, sum := range mw.touchSum {
			for sum != 0 {
				wi := si<<6 | bits.TrailingZeros64(sum)
				sum &= sum - 1
				word := mw.touch[wi]
				mw.touch[wi] = 0
				for word != 0 {
					v := wi<<6 | bits.TrailingZeros64(word)
					word &= word - 1
					mw.commit(res, flows, batch, t, v, opt)
				}
			}
			mw.touchSum[si] = 0
		}
		w.CloseSlot()
	}
	w.FoldStats()

	// Fill each flow's maps once, presized from the run's counts.
	for i := range frs {
		fr := &frs[i]
		nr := int(mw.nReceived[i])
		fr.Received = make(map[int]bool, nr)
		fr.Forwarders = make(map[int]bool, mw.nForward[i])
		fr.Parent = make(map[int]int, nr-1)
		base := i * n
		for v, stamp := range mw.received[base : base+n] {
			if stamp != epoch {
				continue
			}
			fr.Received[v] = true
			if mw.forwarded[base+v] == epoch {
				fr.Forwarders[v] = true
			}
			if v != fr.Source {
				fr.Parent[v] = int(mw.parent[base+v])
			}
		}
	}
	for i := range mw.acted {
		mw.acted[i].pkt = nil // drop payload references until the next run
	}
	return res
}

// commit resolves one (receiver, slot) cell: the collision rule first,
// then delivery/duplicate dispatch into the decoded copy's flow.
func (mw *MultiMACWorkspace) commit(res *MultiResult, flows []MultiFlow, batch []multiTx, t, v int, opt MACOptions) {
	tr := opt.Tracer
	if mw.cnt[v] > 1 {
		res.SharedCollisions++
		// Attribute the destroyed copies flow by flow: each involved flow
		// records one collision event plus its own lost copies, exactly
		// what its single-source run would have recorded had the copies
		// all been its own.
		mw.lostSeq++
		if mw.lostSeq == 0 {
			clear(mw.lostMark[:cap(mw.lostMark)])
			mw.lostSeq = 1
		}
		flowsHit := 0
		lose := func(fi, copies int32) {
			res.Flows[fi].LostCopies += int(copies)
			if mw.lostMark[fi] != mw.lostSeq {
				mw.lostMark[fi] = mw.lostSeq
				res.Flows[fi].Collisions++
				flowsHit++
			}
		}
		// Only other flows' copies are listed; the first copy's flow
		// loses every copy counted but not listed.
		unlisted := mw.cnt[v]
		for i := mw.more[v]; i != 0; i = mw.extra[i-1].next {
			lose(batch[mw.extra[i-1].bi].flow, 1)
			unlisted--
		}
		lose(batch[mw.first[v]].flow, unlisted)
		if flowsHit > 1 {
			res.CrossCollisions++
		}
		if tr != nil {
			tr.Collision(t+1, v)
		}
		return
	}
	x := &batch[mw.first[v]]
	fi := int(x.flow)
	fr := res.Flows[fi]
	f := &flows[fi]
	c := fi*mw.n + v
	var forward bool
	var out Packet
	if mw.received[c] != mw.epoch {
		mw.received[c] = mw.epoch
		mw.parent[c] = x.sender
		mw.nReceived[fi]++
		if rel := t + 1 - f.Start; rel > fr.Latency {
			fr.Latency = rel
		}
		if t+1 > res.Makespan {
			res.Makespan = t + 1
		}
		if v == f.Dst && fr.DstSlot < 0 {
			fr.DstSlot = t + 1
		}
		if tr != nil {
			tr.Deliver(t+1, v, int(x.sender))
		}
		forward, out = f.Proto.OnReceive(v, int(x.sender), x.pkt)
	} else {
		fr.Duplicates++
		if tr != nil {
			tr.Duplicate(t+1, v, int(x.sender))
		}
		if mw.actedOn(c, x.pkt) {
			return
		}
		forward, out = f.Proto.OnDuplicate(v, int(x.sender), x.pkt)
	}
	if forward {
		if mw.forwarded[c] != mw.epoch {
			mw.forwarded[c] = mw.epoch
			mw.nForward[fi]++
		}
		mw.markActed(c, x.pkt)
		mw.markActed(c, out)
		delay := 0
		if opt.Jitter > 0 {
			delay = mw.jitters[fi].Intn(opt.Jitter + 1)
		}
		mw.wheel.Push(t+1+delay, multiTx{flow: x.flow, sender: int32(v), trigger: x.sender, pkt: out})
	}
}

// RunMACMultiDES is RunMACMulti.
//
// Deprecated: the calendar engine is the only multi-source MAC engine;
// call RunMACMulti.
func RunMACMultiDES(g *graph.Graph, flows []MultiFlow, opt MACOptions) *MultiResult {
	return RunMACMulti(g, flows, opt)
}
