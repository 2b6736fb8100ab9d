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
// slot's batch order is push order). Per-(flow, node) state is the
// runState over the n·flows cells, with acted-payload lists only when a
// flow's protocol can act on a duplicate. Each slot's receivers are
// marked in a two-level bitmap and committed in ascending ID order by
// walking it; a receiver keeps its copy count, its first copy, and a
// list of its further copies from other flows in a per-slot arena,
// because cross-flow collision attribution needs the flow of every
// destroyed copy (further copies of the first copy's flow are only
// counted). Each flow's map-based Result is filled once, presized, when
// the run ends. A one-flow run is the single-source engine (RunMAC).
//
// After a warm-up run on the same inputs, a reused workspace allocates
// only the returned MultiResult and its maps
// (TestMultiMACSteadyStateAllocs). The zero value is an empty workspace
// whose buffers grow on first use. Not safe for concurrent use; give each
// worker its own.
type MultiMACWorkspace struct {
	runState
	wheel des.Wheel[multiTx]

	// Per-flow state.
	acts      []bool // the flow's protocol can act on a duplicate
	jitters   []rng.Stream
	nReceived []int32
	nForward  []int32
	lostAt    []int64 // 1 + slot·n + receiver of the last collision the flow counted

	// Per-slot receiver state, valid for v while v's touch bit is set.
	touch    []uint64 // receivers heard from this slot
	touchSum []uint64 // nonzero words of touch
	cnt      []int32  // copies heard this slot
	first    []int32  // batch index of the first copy heard
	more     []int32  // 1 + index in extra of the newest listed copy (0: none)
	extra    []copyLink
}

// copyLink is one further copy, of a flow other than the first copy's,
// heard by a receiver in the open slot.
type copyLink struct {
	bi   int32 // batch index of the copy
	next int32 // 1 + index of the receiver's previous further copy (0: end)
}

// ensure sizes the arrays for n nodes and the flows' protocols, resets
// the cell state, and records which flows act on duplicates, sizing the
// acted-payload state only when one does.
func (mw *MultiMACWorkspace) ensure(n int, flows []MultiFlow) {
	nflows := len(flows)
	if cap(mw.acts) < nflows {
		mw.acts = make([]bool, nflows)
	}
	mw.acts = mw.acts[:nflows]
	acting := false
	for i := range flows {
		mw.acts[i] = actsOnDuplicates(flows[i].Proto)
		acting = acting || mw.acts[i]
	}
	mw.reset(n, nflows, acting)

	if cap(mw.jitters) < nflows {
		mw.jitters = make([]rng.Stream, nflows)
		mw.nReceived = make([]int32, nflows)
		mw.nForward = make([]int32, nflows)
		mw.lostAt = make([]int64, nflows)
	}
	mw.jitters = mw.jitters[:nflows]
	mw.nReceived = mw.nReceived[:nflows]
	mw.nForward = mw.nForward[:nflows]
	mw.lostAt = mw.lostAt[:nflows]
	clear(mw.lostAt)

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
	mw.ensure(n, flows)
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
		mw.nReceived[i], mw.nForward[i] = 1, 1
		start := f.Proto.Start(f.Src)
		mw.originate(i*n+f.Src, mw.acts[i], start)
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
				if fo != nil && !fo.Delivers(int(x.sender), int(v), t+1) {
					continue // the copy faded before reaching v
				}
				mw.hear(batch, int(v), int32(bi))
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

	for i := range frs {
		mw.fill(&frs[i].Result, i, int(mw.nReceived[i]), int(mw.nForward[i]))
	}
	mw.release()
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
		at := 1 + int64(t)*int64(mw.n) + int64(v)
		flowsHit := 0
		lose := func(fi, copies int32) {
			res.Flows[fi].LostCopies += int(copies)
			if mw.lostAt[fi] != at {
				mw.lostAt[fi] = at
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
	if !mw.received.Has(c) {
		mw.received.Add(c)
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
		// A NoDuplicates protocol would decline, and only acting flows
		// keep acted payloads.
		if !mw.acts[fi] || mw.actedOn(c, x.pkt) {
			return
		}
		forward, out = f.Proto.OnDuplicate(v, int(x.sender), x.pkt)
	}
	if forward {
		if mw.forward(c) {
			mw.nForward[fi]++
		}
		if mw.acts[fi] {
			mw.markActed(c, x.pkt)
			mw.markActed(c, out)
		}
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
