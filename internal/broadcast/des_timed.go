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
// the one-flow runState (reception and forwarding marks, parents), the
// decision marks, one heard-list arena, and a timestamp wheel that
// dequeues events in (time, push order). A run fills its result maps
// once, after the event loop, from this state. A scalar heap-based loop
// is kept in the tests as the reference (runTimedOracle).
//
// The zero value is an empty workspace whose buffers grow on first use.
// Not safe for concurrent use; give each worker its own.
type TimedWorkspace struct {
	runState
	wheel   des.Wheel[tdEvent]
	decided graph.Bitset // v's back-off already fired
	// Every node transmits at most once, so v hears each neighbor at most
	// once: its heard list is a degree-sized segment of one arena,
	// heard[heardOff[v] : heardOff[v]+heardLen[v]], reserved the first
	// time v hears a copy. The arena therefore holds at most 2m entries.
	heardOff []int
	heardLen []int32
	heard    []int
}

// ensure sizes the per-node arrays and the heard arena for g and resets
// the marks.
func (tw *TimedWorkspace) ensure(g *graph.Graph) {
	n := g.N()
	tw.reset(n, 1, false)
	tw.decided.Reset(n)
	if cap(tw.heardOff) < n {
		tw.heardOff = make([]int, n)
		tw.heardLen = make([]int32, n)
	}
	tw.heardOff = tw.heardOff[:n]
	tw.heardLen = tw.heardLen[:n]
	if cap(tw.heard) < 2*g.M() {
		tw.heard = make([]int, 0, 2*g.M())
	}
	tw.heard = tw.heard[:0]
}

// hear appends a transmitter to v's heard list, reserving v's arena
// segment on its first copy (which is also when v receives the packet).
// Copies that reach v after its decision are not recorded, since no
// Decide reads them; the source counts as decided from the start.
func (tw *TimedWorkspace) hear(g *graph.Graph, v, from int) {
	if tw.decided.Has(v) {
		return
	}
	if !tw.received.Has(v) {
		tw.heardOff[v] = len(tw.heard)
		tw.heardLen[v] = 0
		tw.heard = tw.heard[:len(tw.heard)+g.Degree(v)]
	}
	tw.heard[tw.heardOff[v]+int(tw.heardLen[v])] = from
	tw.heardLen[v]++
}

// Run simulates one back-off broadcast (see RunTimed), reusing the
// workspace.
func (tw *TimedWorkspace) Run(g *graph.Graph, source int, p TimedProtocol, opt TimedOptions) *Result {
	tw.ensure(g)
	tr := opt.Tracer
	fo := opt.Faults

	res := &Result{Source: source}
	tw.originate(source, false, nil)
	tw.decided.Add(source)
	received, forwarders := 1, 1

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
				for _, v32 := range g.Neighbors(sender) {
					v := int(v32)
					if fo != nil && !fo.Delivers(sender, v, t+1) {
						continue // receiver down, partitioned away, or a loss burst
					}
					tw.hear(g, v, sender)
					if tw.received.Has(v) {
						res.Duplicates++
						if tr != nil {
							tr.Duplicate(t+1, v, sender)
						}
					} else {
						tw.received.Add(v)
						tw.parent[v] = int32(sender)
						received++
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
				if tw.decided.Has(v) {
					continue
				}
				tw.decided.Add(v)
				if fo != nil && !fo.NodeUp(v, t) {
					continue // crashed nodes miss their decision window
				}
				off := tw.heardOff[v]
				if p.Decide(v, tw.heard[off:off+int(tw.heardLen[v])]) {
					tw.forwarded.Add(v)
					forwarders++
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

	tw.fill(res, 0, received, forwarders)
	mRuns.Inc()
	mTransmissions.Add(int64(transmissions))
	mDeliveries.Add(int64(received - 1))
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
