package broadcast

import (
	"reflect"
	"sync"
	"testing"

	"clustercast/internal/graph"
	"clustercast/internal/obs"
)

// TestMACAccountingExact pins the collision arithmetic on the diamond
// 0-{1,2}-3: with no jitter, relays 1 and 2 share slot 1, so BOTH of their
// receivers (the source and node 3) hear two copies and decode neither —
// two collision events destroying four copies, and no duplicate is ever
// delivered.
func TestMACAccountingExact(t *testing.T) {
	g := graph.FromEdges(4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	res := RunMAC(g, 0, Flooding{}, MACOptions{})
	if res.Collisions != 2 {
		t.Fatalf("collisions = %d, want 2 (node 0 and node 3)", res.Collisions)
	}
	if res.LostCopies != 4 {
		t.Fatalf("lost copies = %d, want 4", res.LostCopies)
	}
	if res.Duplicates != 0 {
		t.Fatalf("duplicates = %d, want 0 (every redundant copy collided)", res.Duplicates)
	}
	if res.Latency != 1 || len(res.Received) != 3 {
		t.Fatalf("latency=%d received=%d, want 1 and 3", res.Latency, len(res.Received))
	}
}

// TestMACJitterAccounting pins the resolved schedule: jitter separating the
// two relays turns the collisions into ordinary receptions — node 3 decodes
// the earlier relay, and every other redundant copy surfaces as a duplicate
// instead of a lost copy.
func TestMACJitterAccounting(t *testing.T) {
	g := graph.FromEdges(4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	for seed := uint64(0); seed < 64; seed++ {
		res := RunMAC(g, 0, Flooding{}, MACOptions{Jitter: 3, Seed: seed})
		if !res.Received[3] {
			continue
		}
		if res.Collisions != 0 || res.LostCopies != 0 {
			t.Fatalf("seed %d: full delivery with collisions=%d lost=%d", seed, res.Collisions, res.LostCopies)
		}
		// 0's copy back from each relay and 3's second copy: node 3 forwards
		// too, returning copies to 1 and 2. Exactly: relays' sends reach 0
		// twice (dups) and 3 once-first/once-dup; 3's send reaches 1 and 2
		// as dups. Total duplicates = 2 (at 0) + 1 (at 3) + 2 (at 1,2) = 5.
		if res.Duplicates != 5 {
			t.Fatalf("seed %d: duplicates = %d, want 5", seed, res.Duplicates)
		}
		return
	}
	t.Fatal("no seed separated the relays within 64 tries")
}

// TestMACTraceReconciles: the MAC engine's event stream accounts exactly
// for its result — per-kind event counts equal the result's counters, and
// the distinct senders are the forward node set.
func TestMACTraceReconciles(t *testing.T) {
	nw := randomNet(t, 61, 60, 12)
	tr := obs.NewTracer(1 << 16)
	res := RunMAC(nw.G, 0, Flooding{}, MACOptions{Jitter: 4, Seed: 9, Tracer: tr})
	if tr.Dropped() != 0 {
		t.Fatalf("ring dropped %d events", tr.Dropped())
	}
	senders := map[int]bool{}
	delivered := map[int]bool{0: true}
	kinds := map[obs.EventKind]int{}
	for _, ev := range tr.Events() {
		kinds[ev.Kind]++
		switch ev.Kind {
		case obs.EvSend:
			senders[ev.Node] = true
		case obs.EvDeliver:
			delivered[ev.Node] = true
		}
	}
	if !reflect.DeepEqual(senders, res.Forwarders) {
		t.Fatalf("send nodes %d != forwarders %d", len(senders), len(res.Forwarders))
	}
	if !reflect.DeepEqual(delivered, res.Received) {
		t.Fatalf("delivered %d != received %d", len(delivered), len(res.Received))
	}
	if kinds[obs.EvCollision] != res.Collisions {
		t.Fatalf("collision events %d != result collisions %d", kinds[obs.EvCollision], res.Collisions)
	}
	if kinds[obs.EvDuplicate] != res.Duplicates {
		t.Fatalf("duplicate events %d != result duplicates %d", kinds[obs.EvDuplicate], res.Duplicates)
	}
}

// TestEngineMetricsFold: one run folds its whole-run totals into the shared
// registry exactly once.
func TestEngineMetricsFold(t *testing.T) {
	g := graph.FromEdges(4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	obs.Enable()
	defer obs.Disable()
	defer obs.Default.Reset()
	obs.Default.Reset()

	res := Run(g, 0, Flooding{})
	if got := obs.NewCounter("broadcast.runs").Value(); got != 1 {
		t.Fatalf("broadcast.runs = %d", got)
	}
	if got := obs.NewCounter("broadcast.deliveries").Value(); got != int64(len(res.Received)-1) {
		t.Fatalf("broadcast.deliveries = %d, want %d", got, len(res.Received)-1)
	}
	if got := obs.NewCounter("broadcast.duplicates").Value(); got != int64(res.Duplicates) {
		t.Fatalf("broadcast.duplicates = %d, want %d", got, res.Duplicates)
	}

	obs.Default.Reset()
	mres := RunMAC(g, 0, Flooding{}, MACOptions{})
	if got := obs.NewCounter("mac.collisions").Value(); got != int64(mres.Collisions) {
		t.Fatalf("mac.collisions = %d, want %d", got, mres.Collisions)
	}
	if got := obs.NewCounter("mac.lost_copies").Value(); got != int64(mres.LostCopies) {
		t.Fatalf("mac.lost_copies = %d, want %d", got, mres.LostCopies)
	}
	// RunMAC is a one-flow multi-source run, but it folds like a
	// single-source engine: the multi-only counters stay put.
	if got := obs.NewCounter("broadcast.runs").Value(); got != 1 {
		t.Fatalf("after RunMAC: broadcast.runs = %d, want 1", got)
	}
	for _, name := range []string{"mac.multi_runs", "mac.multi_flows", "mac.cross_collisions"} {
		if got := obs.NewCounter(name).Value(); got != 0 {
			t.Fatalf("after RunMAC: %s = %d, want 0", name, got)
		}
	}

	obs.Default.Reset()
	RunMACMulti(g, []MultiFlow{{Src: 0, Dst: -1, Proto: Flooding{}}}, MACOptions{})
	for _, name := range []string{"broadcast.runs", "mac.multi_runs", "mac.multi_flows"} {
		if got := obs.NewCounter(name).Value(); got != 1 {
			t.Fatalf("after one-flow RunMACMulti: %s = %d, want 1", name, got)
		}
	}
}

// TestMACConcurrentMetrics drives RunMAC (and the ideal engines) from many
// goroutines with metrics enabled: the shared counters are atomics and the
// per-run state is goroutine-local, so the race detector must stay quiet
// and the folded totals must be the exact sum.
func TestMACConcurrentMetrics(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	defer obs.Default.Reset()
	obs.Default.Reset()

	const workers = 8
	collisions := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			nw := randomNet(t, 300+uint64(w), 50, 12)
			tr := obs.NewTracer(4096)
			for i := 0; i < 5; i++ {
				res := RunMAC(nw.G, i%50, Flooding{}, MACOptions{Jitter: 2, Seed: uint64(i), Tracer: tr})
				collisions[w] += res.Collisions
				tr.Reset()
				var ws Workspace
				ws.Run(nw.G, i%50, Flooding{})
				RunTimed(nw.G, i%50, NewSBA(nw.G, 3, uint64(i)))
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, c := range collisions {
		total += c
	}
	if got := obs.NewCounter("mac.collisions").Value(); got != int64(total) {
		t.Fatalf("mac.collisions = %d, want %d", got, total)
	}
	if got := obs.NewCounter("broadcast.runs").Value(); got != workers*5*3 {
		t.Fatalf("broadcast.runs = %d, want %d", got, workers*5*3)
	}
}
