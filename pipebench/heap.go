package main

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
)

// measureHeap runs one more op of wl, outside any timing, with a full
// garbage collection at the end of every layer call and of the op, and
// returns the op and the highest live heap any of those collections found.
//
// The op's goroutine waits while a forced collection runs, so each reading
// is exactly the bytes reachable at that point: the workspaces at the size
// the call grew them to, the call's results, and the workspaces the layers
// keep in their pools. Automatic collection is off during the op, so these
// are its only collections, and a pool holds everything put in it since
// the previous reading (a pool drops its entries at the second collection
// after they were put). Scratch memory a call frees before it returns is
// not seen. Readings taken by the collector's own cycles would see it, but
// they also count whatever the op allocates while the cycle marks, which
// made them move by a tenth between runs of the same inputs.
func measureHeap(wl runner) (outcome, uint64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	tr := newTracer(false)
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var peak uint64
	tr.spanEnd = func() {
		runtime.GC()
		metrics.Read(live)
		peak = max(peak, live[0].Value.Uint64())
	}
	o := runOp(tr, wl)
	tr.spanEnd()
	return o, peak
}
