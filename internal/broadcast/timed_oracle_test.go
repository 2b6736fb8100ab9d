package broadcast

import (
	"container/heap"

	"clustercast/internal/graph"
)

// timedEvent is an entry of the simulation's time-ordered queue.
type timedEvent struct {
	time int
	seq  int // FIFO tie-break for equal times
	// kind 0: transmission by node; kind 1: decision timeout at node.
	kind int
	node int
}

// eventQueue is a min-heap over (time, seq).
type eventQueue []timedEvent

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(timedEvent)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// runTimedOracle is the scalar back-off loop, the reference the
// production engine (TimedWorkspace.Run) is checked against: a binary
// heap over (time, seq) and map-based node state.
func runTimedOracle(g *graph.Graph, source int, p TimedProtocol, opt TimedOptions) *Result {
	res := &Result{
		Source:     source,
		Forwarders: map[int]bool{source: true},
		Received:   map[int]bool{source: true},
		Parent:     make(map[int]int),
	}
	heard := make(map[int][]int)
	decided := map[int]bool{source: true}
	tr := opt.Tracer
	fo := opt.Faults

	var q eventQueue
	seq := 0
	push := func(t, kind, node int) {
		heap.Push(&q, timedEvent{time: t, seq: seq, kind: kind, node: node})
		seq++
	}
	push(0, 0, source)
	if tr != nil {
		tr.Send(0, source, -1)
	}
	transmissions := 0

	for q.Len() > 0 {
		ev := heap.Pop(&q).(timedEvent)
		switch ev.kind {
		case 0: // transmission
			if fo != nil && !fo.NodeUp(ev.node, ev.time) {
				break // the sender crashed before its slot
			}
			transmissions++
			if tr != nil {
				tr.SetTime(ev.time + 1)
			}
			for _, v32 := range g.Neighbors(ev.node) {
				v := int(v32)
				if fo != nil && (!fo.NodeUp(v, ev.time+1) || !fo.LinkUp(ev.node, v, ev.time+1) ||
					fo.CopyLost(ev.node, v, ev.time+1)) {
					continue // receiver down, partitioned away, or a loss burst
				}
				heard[v] = append(heard[v], ev.node)
				if res.Received[v] {
					res.Duplicates++
					if tr != nil {
						tr.Duplicate(ev.time+1, v, ev.node)
					}
				}
				if !res.Received[v] {
					res.Received[v] = true
					res.Parent[v] = ev.node
					if ev.time+1 > res.Latency {
						res.Latency = ev.time + 1
					}
					if tr != nil {
						tr.Deliver(ev.time+1, v, ev.node)
					}
					// Schedule the decision after the back-off.
					push(ev.time+1+p.Delay(v), 1, v)
				}
			}
		case 1: // decision timeout
			v := ev.node
			if decided[v] {
				break
			}
			decided[v] = true
			if fo != nil && !fo.NodeUp(v, ev.time) {
				break // crashed nodes miss their decision window
			}
			if p.Decide(v, heard[v]) {
				res.Forwarders[v] = true
				if tr != nil {
					tr.Send(ev.time, v, res.Parent[v])
				}
				push(ev.time, 0, v)
			}
		}
	}
	mRuns.Inc()
	mTransmissions.Add(int64(transmissions))
	mDeliveries.Add(int64(len(res.Received) - 1))
	mDuplicates.Add(int64(res.Duplicates))
	return res
}
