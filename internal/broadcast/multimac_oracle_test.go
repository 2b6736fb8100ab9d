package broadcast

import (
	"sort"

	"clustercast/internal/graph"
	"clustercast/internal/obs"
	"clustercast/internal/rng"
)

// runMACMultiOracle is the scalar multi-source MAC loop, the reference
// the production engine (MultiMACWorkspace.Run) is checked against: a
// slot map plus an occupied-slot heap, map-based per-flow state, and a
// per-slot heardBy map whose receivers are sorted before commit.
func runMACMultiOracle(g *graph.Graph, flows []MultiFlow, opt MACOptions) *MultiResult {
	res := &MultiResult{Flows: make([]*FlowResult, len(flows))}
	if len(flows) == 0 {
		return res
	}

	jitters := make([]rng.Stream, len(flows))
	draw := func(fi int32) int {
		if opt.Jitter <= 0 {
			return 0
		}
		return jitters[fi].Intn(opt.Jitter + 1)
	}

	// Per-flow acted-payload sets, exactly RunMAC's per-node bookkeeping
	// lifted to (flow, node).
	acted := make([]map[int]map[Packet]bool, len(flows))
	mark := func(fi int32, v int, pkt Packet) {
		m := acted[fi][v]
		if m == nil {
			m = make(map[Packet]bool)
			acted[fi][v] = m
		}
		m[pkt] = true
	}

	// slots[t] holds the transmissions scheduled for slot t; occ is the
	// min-heap of occupied slots (see RunMAC).
	slots := map[int][]multiTx{}
	var occ []int
	schedule := func(slot int, x multiTx) {
		if len(slots[slot]) == 0 {
			occ = append(occ, slot)
			for i := len(occ) - 1; i > 0; { // sift up
				p := (i - 1) / 2
				if occ[p] <= occ[i] {
					break
				}
				occ[p], occ[i] = occ[i], occ[p]
				i = p
			}
		}
		slots[slot] = append(slots[slot], x)
	}
	popSlot := func() int {
		t := occ[0]
		last := len(occ) - 1
		occ[0] = occ[last]
		occ = occ[:last]
		for i := 0; ; { // sift down
			c := 2*i + 1
			if c >= last {
				break
			}
			if c+1 < last && occ[c+1] < occ[c] {
				c++
			}
			if occ[i] <= occ[c] {
				break
			}
			occ[i], occ[c] = occ[c], occ[i]
			i = c
		}
		return t
	}

	tr := opt.Tracer
	if tr != nil {
		tr.SetTime(0)
	}
	for i := range flows {
		f := &flows[i]
		fr := &FlowResult{Start: f.Start, DstSlot: -1}
		fr.Result = Result{
			Source:     f.Src,
			Forwarders: map[int]bool{f.Src: true},
			Received:   map[int]bool{f.Src: true},
			Parent:     make(map[int]int),
		}
		if f.Dst == f.Src {
			fr.DstSlot = f.Start
		}
		res.Flows[i] = fr
		jitters[i].SeedLabeled(f.Seed, "mac-jitter")
		acted[i] = make(map[int]map[Packet]bool)
		start := f.Proto.Start(f.Src)
		mark(int32(i), f.Src, start)
		schedule(f.Start, multiTx{flow: int32(i), sender: int32(f.Src), trigger: -1, pkt: start})
	}

	fo := opt.Faults
	for len(occ) > 0 {
		t := popSlot()
		batch := slots[t]
		delete(slots, t)
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
		heardBy := map[int][]int32{}
		for bi, x := range batch {
			for _, v := range g.Neighbors(int(x.sender)) {
				if fo != nil && (!fo.NodeUp(v, t+1) || !fo.LinkUp(int(x.sender), v, t+1) ||
					fo.CopyLost(int(x.sender), v, t+1)) {
					continue // the copy faded before reaching v
				}
				heardBy[v] = append(heardBy[v], int32(bi))
			}
		}
		receivers := make([]int, 0, len(heardBy))
		for v := range heardBy {
			receivers = append(receivers, v)
		}
		sort.Ints(receivers)
		for _, v := range receivers {
			copies := heardBy[v]
			res.commitOracle(g, flows, batch, t, v, copies, tr, func(fi int32) int { return draw(fi) },
				func(fi int32, node int, pkt Packet) { mark(fi, node, pkt) },
				func(fi int32, node int, pkt Packet) bool { return acted[fi][node][pkt] },
				func(slot int, x multiTx) { schedule(slot, x) })
		}
	}

	res.fold()
	return res
}

// commitOracle resolves one (receiver, slot) cell of the oracle: the
// collision rule first, then delivery/duplicate dispatch into the decoded
// copy's flow.
func (m *MultiResult) commitOracle(g *graph.Graph, flows []MultiFlow, batch []multiTx, t, v int,
	copies []int32, tr *obs.Tracer, draw func(int32) int,
	mark func(int32, int, Packet), actedOn func(int32, int, Packet) bool,
	schedule func(int, multiTx)) {
	if len(copies) > 1 {
		m.SharedCollisions++
		// Attribute the destroyed copies flow by flow: each involved flow
		// records one collision event plus its own lost copies, exactly
		// what its single-source run would have recorded had the copies
		// all been its own.
		first := batch[copies[0]].flow
		cross := false
		for ci, bi := range copies {
			fi := batch[bi].flow
			m.Flows[fi].LostCopies++
			if fi != first {
				cross = true
			}
			newFlow := true
			for _, bj := range copies[:ci] {
				if batch[bj].flow == fi {
					newFlow = false
					break
				}
			}
			if newFlow {
				m.Flows[fi].Collisions++
			}
		}
		if cross {
			m.CrossCollisions++
		}
		if tr != nil {
			tr.Collision(t+1, v)
		}
		return
	}
	x := batch[copies[0]]
	fi := x.flow
	fr := m.Flows[fi]
	f := &flows[fi]
	var forward bool
	var out Packet
	if !fr.Received[v] {
		fr.Received[v] = true
		fr.Parent[v] = int(x.sender)
		if rel := t + 1 - f.Start; rel > fr.Latency {
			fr.Latency = rel
		}
		if t+1 > m.Makespan {
			m.Makespan = t + 1
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
		if actedOn(fi, v, x.pkt) {
			return
		}
		forward, out = f.Proto.OnDuplicate(v, int(x.sender), x.pkt)
	}
	if forward {
		fr.Forwarders[v] = true
		mark(fi, v, x.pkt)
		mark(fi, v, out)
		schedule(t+1+draw(fi), multiTx{flow: fi, sender: int32(v), trigger: x.sender, pkt: out})
	}
}
