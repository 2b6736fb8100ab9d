package broadcast

import (
	"clustercast/internal/des"
	"clustercast/internal/graph"
)

// tdEvent is a calendar entry of the timed engine: the wheel supplies
// the time and the (time, push order) discipline.
type tdEvent struct {
	kind uint8 // 0: transmission by node; 1: decision timeout at node
	node int32
}

// TimedWorkspace owns the dense per-node state of the back-off engine:
// epoch-stamped reception/decision marks, pooled per-node heard lists,
// and a timestamp wheel that dequeues events in (time, push order). A
// scalar heap-based loop is kept in the tests as the reference
// (runTimedOracle).
//
// Not safe for concurrent use; give each worker its own.
type TimedWorkspace struct {
	wheel     des.Wheel[tdEvent]
	epoch     uint32
	received  []uint32 // epoch stamp: v has the packet
	forwarded []uint32 // epoch stamp: v transmitted (or is the source)
	decided   []uint32 // epoch stamp: v's back-off already fired
	heardAt   []uint32 // epoch stamp: heard[v] is current
	parent    []int32
	heard     [][]int // transmitters heard by v, in receive order
}

// NewTimedWorkspace returns an empty workspace; buffers grow on first
// use.
func NewTimedWorkspace() *TimedWorkspace { return &TimedWorkspace{} }

// ensure sizes the per-node arrays and bumps the epoch (with the usual
// wrap flush).
func (tw *TimedWorkspace) ensure(n int) {
	if cap(tw.received) < n {
		tw.received = make([]uint32, n)
		tw.forwarded = make([]uint32, n)
		tw.decided = make([]uint32, n)
		tw.heardAt = make([]uint32, n)
		tw.parent = make([]int32, n)
		tw.heard = make([][]int, n)
		tw.epoch = 0
	}
	tw.received = tw.received[:n]
	tw.forwarded = tw.forwarded[:n]
	tw.decided = tw.decided[:n]
	tw.heardAt = tw.heardAt[:n]
	tw.parent = tw.parent[:n]
	tw.heard = tw.heard[:n]
	tw.epoch++
	if tw.epoch == 0 {
		for _, s := range [][]uint32{tw.received[:cap(tw.received)], tw.forwarded[:cap(tw.forwarded)],
			tw.decided[:cap(tw.decided)], tw.heardAt[:cap(tw.heardAt)]} {
			for i := range s {
				s[i] = 0
			}
		}
		tw.epoch = 1
	}
}

// heardBy returns v's current heard list, resetting it on first touch
// this run.
func (tw *TimedWorkspace) heardBy(v int) []int {
	if tw.heardAt[v] != tw.epoch {
		return nil
	}
	return tw.heard[v]
}

// hear appends a transmitter to v's heard list.
func (tw *TimedWorkspace) hear(v, from int) {
	if tw.heardAt[v] != tw.epoch {
		tw.heardAt[v] = tw.epoch
		tw.heard[v] = tw.heard[v][:0]
	}
	tw.heard[v] = append(tw.heard[v], from)
}

// Run simulates one back-off broadcast (see RunTimed), reusing the
// workspace.
func (tw *TimedWorkspace) Run(g *graph.Graph, source int, p TimedProtocol, opt TimedOptions) *Result {
	n := g.N()
	tw.ensure(n)
	epoch := tw.epoch
	tr := opt.Tracer
	fo := opt.Faults

	res := &Result{
		Source:     source,
		Forwarders: map[int]bool{source: true},
		Received:   map[int]bool{source: true},
		Parent:     make(map[int]int),
	}
	tw.received[source] = epoch
	tw.forwarded[source] = epoch
	tw.decided[source] = epoch

	w := &tw.wheel
	w.Reset(64) // typical back-off windows; longer delays overflow to the far heap
	w.Push(0, tdEvent{kind: 0, node: int32(source)})
	if tr != nil {
		tr.Send(0, source, -1)
	}
	transmissions := 0

	for w.Len() > 0 {
		t := w.OpenSlot()
		for i := 0; i < w.SlotLen(); i++ {
			ev := w.Event(i)
			switch ev.kind {
			case 0: // transmission
				sender := int(ev.node)
				if fo != nil && !fo.NodeUp(sender, t) {
					continue // the sender crashed before its slot
				}
				transmissions++
				if tr != nil {
					tr.SetTime(t + 1)
				}
				for _, v := range g.Neighbors(sender) {
					if fo != nil && (!fo.NodeUp(v, t+1) || !fo.LinkUp(sender, v, t+1) ||
						fo.CopyLost(sender, v, t+1)) {
						continue // receiver down, partitioned away, or a loss burst
					}
					tw.hear(v, sender)
					if tw.received[v] == epoch {
						res.Duplicates++
						if tr != nil {
							tr.Duplicate(t+1, v, sender)
						}
					} else {
						tw.received[v] = epoch
						tw.parent[v] = int32(sender)
						res.Received[v] = true
						res.Parent[v] = sender
						if t+1 > res.Latency {
							res.Latency = t + 1
						}
						if tr != nil {
							tr.Deliver(t+1, v, sender)
						}
						// Schedule the decision after the back-off.
						w.Push(t+1+p.Delay(v), tdEvent{kind: 1, node: int32(v)})
					}
				}
			case 1: // decision timeout
				v := int(ev.node)
				if tw.decided[v] == epoch {
					continue
				}
				tw.decided[v] = epoch
				if fo != nil && !fo.NodeUp(v, t) {
					continue // crashed nodes miss their decision window
				}
				if p.Decide(v, tw.heardBy(v)) {
					tw.forwarded[v] = epoch
					res.Forwarders[v] = true
					if tr != nil {
						tr.Send(t, v, int(tw.parent[v]))
					}
					w.Push(t, tdEvent{kind: 0, node: int32(v)}) // same-slot transmission
				}
			}
		}
		w.CloseSlot()
	}
	w.FoldStats()
	mRuns.Inc()
	mTransmissions.Add(int64(transmissions))
	mDeliveries.Add(int64(len(res.Received) - 1))
	mDuplicates.Add(int64(res.Duplicates))
	return res
}

// RunTimedDES is RunTimedOpts.
//
// Deprecated: the calendar engine is the only back-off engine; call
// RunTimedOpts.
func RunTimedDES(g *graph.Graph, source int, p TimedProtocol, opt TimedOptions) *Result {
	return RunTimedOpts(g, source, p, opt)
}
