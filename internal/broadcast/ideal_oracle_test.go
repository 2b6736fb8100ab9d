package broadcast

import (
	"clustercast/internal/graph"
	"clustercast/internal/rng"
)

// runIdealOracle is the map-based ideal/lossy-radio loop, the reference
// the production engine (Workspace.RunOpts) is checked against: a plain
// FIFO of transmissions and per-node maps for reception, forwarding,
// parents and acted payloads. It consumes randomness, consults the fault
// oracle, emits trace events and folds counters in the same order as
// the production engine.
func runIdealOracle(g *graph.Graph, source int, p Protocol, opt Options) *Result {
	res := &Result{
		Source:     source,
		Forwarders: map[int]bool{source: true},
		Received:   map[int]bool{source: true},
		Parent:     make(map[int]int),
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
	mark(source, start)
	queue := []transmission{{sender: source, pkt: start, time: 0}}
	sent := 0
	for len(queue) > 0 {
		tx := queue[0]
		queue = queue[1:]
		sent++
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
			if !res.Received[v] {
				res.Received[v] = true
				res.Parent[v] = tx.sender
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
				if acted[v][tx.pkt] {
					continue
				}
				forward, out = p.OnDuplicate(v, tx.sender, tx.pkt)
			}
			if forward {
				res.Forwarders[v] = true
				mark(v, tx.pkt)
				mark(v, out)
				if tr != nil {
					tr.Send(tx.time+1, v, tx.sender)
				}
				queue = append(queue, transmission{sender: v, pkt: out, time: tx.time + 1})
			}
		}
	}
	mRuns.Inc()
	mTransmissions.Add(int64(sent - faultSkips))
	mDeliveries.Add(int64(len(res.Received) - 1))
	mDuplicates.Add(int64(res.Duplicates))
	if fo != nil {
		mFaultSkips.Add(int64(faultSkips))
		mFaultDrops.Add(int64(faultDrops))
	}
	return res
}
