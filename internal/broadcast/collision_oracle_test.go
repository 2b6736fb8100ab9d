package broadcast

import (
	"sort"

	"clustercast/internal/graph"
	"clustercast/internal/rng"
)

// runMACOracle is the scalar single-source MAC loop, the reference the
// production engine (RunMAC, a one-flow MultiMACWorkspace run) is
// checked against: a slot map plus an occupied-slot heap, map-based node
// state, and a per-slot heardBy map whose receivers are sorted before
// commit.
func runMACOracle(g *graph.Graph, source int, p Protocol, opt MACOptions) *CollisionResult {
	res := &CollisionResult{Result: Result{
		Source:     source,
		Forwarders: make(map[int]bool),
		Received:   make(map[int]bool),
		Parent:     make(map[int]int),
	}}
	res.Received[source] = true
	res.Forwarders[source] = true

	jitter := rng.NewLabeled(opt.Seed, "mac-jitter")
	draw := func() int {
		if opt.Jitter <= 0 {
			return 0
		}
		return jitter.Intn(opt.Jitter + 1)
	}

	acted := make(map[int]map[Packet]bool)
	mark := func(v int, pkt Packet) {
		m := acted[v]
		if m == nil {
			m = make(map[Packet]bool)
			acted[v] = m
		}
		m[pkt] = true
	}

	type tx struct {
		sender  int
		trigger int // upstream sender that caused this relay (-1: source)
		pkt     Packet
	}
	// slots[t] holds the transmissions scheduled for slot t. occ is a
	// min-heap of the occupied slot numbers, pushed once when a slot gains
	// its first transmission, so the loop jumps between occupied slots
	// instead of scanning every empty slot of the jitter window — with a
	// large Jitter and a thinned forwarder set (gossip tails, faults) most
	// slots are empty and the scan is pure waste. All pushes land strictly
	// after the slot being drained, so the popped sequence is exactly the
	// ascending occupied subsequence the scalar scan visited.
	slots := map[int][]tx{}
	var occ []int
	schedule := func(slot int, x tx) {
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
	start := p.Start(source)
	mark(source, start)
	schedule(0, tx{source, -1, start})
	transmissions := 0

	fo := opt.Faults
	for len(occ) > 0 {
		t := popSlot()
		batch := slots[t]
		delete(slots, t)
		if fo != nil {
			// Crashed forwarders stay silent; their slot reservation lapses.
			live := batch[:0]
			for _, x := range batch {
				if fo.NodeUp(x.sender, t) {
					live = append(live, x)
				}
			}
			batch = live
		}
		if tr != nil {
			tr.SetTime(t + 1)
			for _, x := range batch {
				tr.Send(t, x.sender, x.trigger)
			}
		}
		transmissions += len(batch)
		// Receiver-side resolution: count transmitting neighbors per node.
		heardBy := map[int][]tx{}
		for _, x := range batch {
			for _, v := range g.Neighbors(x.sender) {
				if fo != nil && (!fo.NodeUp(v, t+1) || !fo.LinkUp(x.sender, v, t+1) ||
					fo.CopyLost(x.sender, v, t+1)) {
					continue // the copy faded before reaching v
				}
				heardBy[v] = append(heardBy[v], x)
			}
		}
		// Receivers process in ascending order for determinism (protocol
		// state mutations must not depend on map iteration order).
		receivers := make([]int, 0, len(heardBy))
		for v := range heardBy {
			receivers = append(receivers, v)
		}
		sort.Ints(receivers)
		for _, v := range receivers {
			copies := heardBy[v]
			if len(copies) > 1 {
				res.Collisions++
				res.LostCopies += len(copies)
				if tr != nil {
					tr.Collision(t+1, v)
				}
				continue // all copies destroyed at this receiver
			}
			x := copies[0]
			var forward bool
			var out Packet
			if !res.Received[v] {
				res.Received[v] = true
				res.Parent[v] = x.sender
				if t+1 > res.Latency {
					res.Latency = t + 1
				}
				if tr != nil {
					tr.Deliver(t+1, v, x.sender)
				}
				forward, out = p.OnReceive(v, x.sender, x.pkt)
			} else {
				res.Duplicates++
				if tr != nil {
					tr.Duplicate(t+1, v, x.sender)
				}
				if acted[v][x.pkt] {
					continue
				}
				forward, out = p.OnDuplicate(v, x.sender, x.pkt)
			}
			if forward {
				res.Forwarders[v] = true
				mark(v, x.pkt)
				mark(v, out)
				schedule(t+1+draw(), tx{v, x.sender, out})
			}
		}
	}
	mRuns.Inc()
	mTransmissions.Add(int64(transmissions))
	mDeliveries.Add(int64(len(res.Received) - 1))
	mDuplicates.Add(int64(res.Duplicates))
	mMACCollisions.Add(int64(res.Collisions))
	mMACLostCopies.Add(int64(res.LostCopies))
	return res
}
