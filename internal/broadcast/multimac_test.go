package broadcast

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"clustercast/internal/graph"
	"clustercast/internal/obs"
	"clustercast/internal/rng"
)

// multiFlows builds a deterministic flow set over n nodes: sources cycle
// through the graph, starts follow the given gap, seeds derive from the
// flow index.
func multiFlows(n, count, gap int, p Protocol) []MultiFlow {
	flows := make([]MultiFlow, count)
	for i := range flows {
		flows[i] = MultiFlow{
			Src:   (i * 7) % n,
			Dst:   (i*7 + n/2) % n,
			Start: i * gap,
			Seed:  uint64(1000 + i),
			Proto: p,
		}
	}
	return flows
}

// TestMultiMACZeroContentionEquivalence is the acceptance gate of the
// multi-source engine: with flow starts spaced beyond any possible
// broadcast makespan (disjoint slot schedules), the multi-source run
// degenerates to N serialized single-source RunMAC runs, bit for bit —
// per-flow Result, Collisions, LostCopies, and the run's aggregate
// transmission count.
func TestMultiMACZeroContentionEquivalence(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		nw := randomNet(t, 700+uint64(trial), 40+8*trial, 8)
		n := nw.G.N()
		ps := []Protocol{
			Flooding{},
			Gossip{P: 0.8, Seed: 41},
			StaticCDS{Set: map[int]bool{0: true, 2: true, 4: true, 6: true, 9: true}, Label: "cds"},
		}
		for _, jit := range []int{0, 4} {
			for _, p := range ps {
				// gap > n*(Jitter+2) bounds any single broadcast's makespan.
				flows := multiFlows(n, 5, n*(jit+2)+10, p)
				opt := MACOptions{Jitter: jit}
				multi := RunMACMulti(nw.G, flows, opt)
				for i, f := range flows {
					single := RunMAC(nw.G, f.Src, p, MACOptions{Jitter: jit, Seed: f.Seed})
					fr := multi.Flows[i]
					if !reflect.DeepEqual(&single.Result, &fr.Result) ||
						single.Collisions != fr.Collisions || single.LostCopies != fr.LostCopies {
						t.Fatalf("trial %d %s jit=%d flow %d: multi-source result differs from serialized single run:\n%+v\n%+v",
							trial, p.Name(), jit, i, single, fr.CollisionResult)
					}
					// DstSlot, when reached, must equal Start + the slot the
					// single run delivered Dst in.
					if fr.Result.Received[f.Dst] && f.Dst != f.Src {
						if fr.DstSlot < f.Start {
							t.Fatalf("flow %d: DstSlot %d before Start %d", i, fr.DstSlot, f.Start)
						}
					}
					if multi.CrossCollisions != 0 {
						t.Fatalf("trial %d: cross-flow collisions under disjoint schedules", trial)
					}
				}
			}
		}
	}
}

// TestMultiMACMetricsParitySerialized: a zero-contention multi-source run
// folds exactly the broadcast.* and mac.* totals its serialized
// single-source replays fold, plus its own mac.multi_* accounting.
func TestMultiMACMetricsParitySerialized(t *testing.T) {
	nw := randomNet(t, 93, 50, 8)
	n := nw.G.N()
	p := Gossip{P: 0.7, Seed: 19}
	flows := multiFlows(n, 6, n*4+10, p)
	macCounters := append([]string{"mac.collisions", "mac.lost_copies"}, parityCounters...)
	want := counterTotals(t, macCounters, func() {
		for _, f := range flows {
			RunMAC(nw.G, f.Src, p, MACOptions{Jitter: 2, Seed: f.Seed})
		}
	})
	got := counterTotals(t, macCounters, func() {
		RunMACMulti(nw.G, flows, MACOptions{Jitter: 2})
	})
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("multi-source totals %v != serialized totals %v", got, want)
	}
	if want["broadcast.deliveries"] == 0 {
		t.Fatal("parity on all-zero totals proves nothing")
	}
}

// TestMultiMACScalarDESEquivalence pins the multi-source engine to the
// scalar oracle across overlapping flow schedules, jitter windows and
// fault oracles, including the typed trace stream, on one workspace
// reused across every run.
func TestMultiMACScalarDESEquivalence(t *testing.T) {
	mw := NewMultiMACWorkspace()
	for trial := 0; trial < 5; trial++ {
		nw := randomNet(t, 800+uint64(trial), 40+10*trial, 9)
		n := nw.G.N()
		ps := []Protocol{
			Flooding{},
			Gossip{P: 0.8, Seed: 31},
			StaticCDS{Set: map[int]bool{0: true, 2: true, 4: true, 6: true, 9: true}, Label: "cds"},
		}
		for _, jit := range []int{0, 3, 8} {
			for _, withFaults := range []bool{false, true} {
				for _, p := range ps {
					// Overlapping starts: gap 1 guarantees heavy contention.
					flows := multiFlows(n, 6, 1, p)
					trA, trB := obs.NewTracer(1<<14), obs.NewTracer(1<<14)
					optA := MACOptions{Jitter: jit, Tracer: trA}
					optB := MACOptions{Jitter: jit, Tracer: trB}
					if withFaults {
						optA.Faults = burstOracle(t, n, uint64(70+trial))
						optB.Faults = burstOracle(t, n, uint64(70+trial))
					}
					a := runMACMultiOracle(nw.G, flows, optA)
					b := mw.Run(nw.G, flows, optB)
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("trial %d %s jit=%d faults=%v: oracle and engine multi-source runs differ:\n%+v\n%+v",
							trial, p.Name(), jit, withFaults, a, b)
					}
					if !bytes.Equal(traceBytes(t, trA), traceBytes(t, trB)) {
						t.Fatalf("trial %d %s jit=%d faults=%v: trace streams differ",
							trial, p.Name(), jit, withFaults)
					}
				}
			}
		}
	}
}

// TestMultiMACCrossCollision pins the cross-flow collision attribution on
// a hand-built path: sources at both ends of a 3-node path transmit in
// the same slot, so the middle node hears one copy of each flow and
// decodes neither.
func TestMultiMACCrossCollision(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	flows := []MultiFlow{
		{Src: 0, Dst: 2, Start: 0, Seed: 1, Proto: Flooding{}},
		{Src: 2, Dst: 0, Start: 0, Seed: 2, Proto: Flooding{}},
	}
	res := RunMACMulti(g, flows, MACOptions{})
	if res.SharedCollisions != 1 || res.CrossCollisions != 1 {
		t.Fatalf("shared=%d cross=%d, want 1/1", res.SharedCollisions, res.CrossCollisions)
	}
	for i, fr := range res.Flows {
		if fr.Collisions != 1 || fr.LostCopies != 1 {
			t.Fatalf("flow %d: collisions=%d lost=%d, want 1/1", i, fr.Collisions, fr.LostCopies)
		}
		if len(fr.Received) != 1 {
			t.Fatalf("flow %d: delivered through a collision: %v", i, fr.Received)
		}
		if fr.DstSlot != -1 {
			t.Fatalf("flow %d: DstSlot %d for an unreached destination", i, fr.DstSlot)
		}
		if len(fr.Parent) != 0 {
			t.Fatalf("flow %d: collided delivery recorded a parent: %v", i, fr.Parent)
		}
	}
	if res.Transmissions != 2 {
		t.Fatalf("transmissions = %d, want 2", res.Transmissions)
	}
}

// TestMultiMACSameFlowCollisionNotCross: two forwarders of the *same*
// flow colliding must not count as cross-flow contention.
func TestMultiMACSameFlowCollisionNotCross(t *testing.T) {
	// Diamond: 0-1, 0-2, 1-3, 2-3. Flooding from 0 with Jitter 0: nodes 1
	// and 2 both relay in slot 1, and 3 hears both copies.
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	flows := []MultiFlow{{Src: 0, Dst: 3, Start: 0, Seed: 5, Proto: Flooding{}}}
	res := RunMACMulti(g, flows, MACOptions{})
	if res.SharedCollisions == 0 {
		t.Fatal("diamond relay produced no collision")
	}
	if res.CrossCollisions != 0 {
		t.Fatalf("cross=%d for a single-flow run", res.CrossCollisions)
	}
	fr := res.Flows[0]
	if fr.Collisions != res.SharedCollisions || fr.LostCopies == 0 {
		t.Fatalf("single-flow attribution off: flow collisions=%d lost=%d shared=%d",
			fr.Collisions, fr.LostCopies, res.SharedCollisions)
	}
}

// TestMultiMACDstSlot pins destination timestamping: on a path with one
// flow, DstSlot is Start + hop distance (Jitter 0), and Latency stays
// relative to Start.
func TestMultiMACDstSlot(t *testing.T) {
	g := pathGraph(5)
	flows := []MultiFlow{{Src: 0, Dst: 4, Start: 17, Seed: 3, Proto: Flooding{}}}
	res := RunMACMulti(g, flows, MACOptions{})
	fr := res.Flows[0]
	if fr.DstSlot != 17+4 {
		t.Fatalf("DstSlot = %d, want %d", fr.DstSlot, 17+4)
	}
	if fr.Latency != 4 {
		t.Fatalf("relative latency = %d, want 4", fr.Latency)
	}
	if res.Makespan != 17+4 {
		t.Fatalf("makespan = %d, want %d", res.Makespan, 17+4)
	}
	// Dst == Src short-circuits to Start.
	res = RunMACMulti(g, []MultiFlow{{Src: 2, Dst: 2, Start: 9, Seed: 4, Proto: Flooding{}}}, MACOptions{})
	if res.Flows[0].DstSlot != 9 {
		t.Fatalf("Dst==Src DstSlot = %d, want 9", res.Flows[0].DstSlot)
	}
}

// FuzzMultiMACScalarDESAgree cross-checks the multi-source engine
// against the scalar oracle on fuzzer-chosen flow schedules. One
// workspace serves a run at the chosen size, a smaller one, the chosen
// size again, and a larger one, so its flat per-(flow, node) arrays are
// resliced down and up between runs.
func FuzzMultiMACScalarDESAgree(f *testing.F) {
	f.Add(uint64(1), 40, 8, 3, 4, 2, uint64(9))
	f.Add(uint64(7), 25, 6, 0, 2, 0, uint64(2))
	f.Add(uint64(42), 60, 10, 12, 6, 5, uint64(77))
	f.Fuzz(func(t *testing.T, topoSeed uint64, n, deg, jitter, nflows, gap int, seed uint64) {
		if n < 5 || n > 100 || deg < 3 || deg > 14 || jitter < 0 || jitter > 16 ||
			nflows < 1 || nflows > 8 || gap < 0 || gap > 64 {
			t.Skip()
		}
		mw := NewMultiMACWorkspace()
		sizes := [][2]int{{n, nflows}, {n/2 + 3, nflows/2 + 1}, {n, nflows}, {n + 17, nflows + 3}}
		for k, sz := range sizes {
			nw := randomNet(t, topoSeed+uint64(k), sz[0], float64(deg))
			nn := nw.G.N()
			r := rng.New(seed + uint64(k))
			flows := make([]MultiFlow, sz[1])
			for i := range flows {
				flows[i] = MultiFlow{
					Src:   r.Intn(nn),
					Dst:   r.Intn(nn),
					Start: i * gap,
					Seed:  r.Uint64(),
					Proto: Gossip{P: 0.85, Seed: seed + uint64(i)},
				}
			}
			opt := MACOptions{Jitter: jitter}
			a := runMACMultiOracle(nw.G, flows, opt)
			b := mw.Run(nw.G, flows, opt)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("run %d (n=%d, %d flows): oracle and engine multi-source runs differ:\n%+v\n%+v",
					k, nn, len(flows), a, b)
			}
		}
	})
}

// TestMultiMACEmptyFlows: the degenerate call is total.
func TestMultiMACEmptyFlows(t *testing.T) {
	g := pathGraph(3)
	for name, run := range map[string]func() *MultiResult{
		"oracle": func() *MultiResult { return runMACMultiOracle(g, nil, MACOptions{}) },
		"engine": func() *MultiResult { return RunMACMulti(g, nil, MACOptions{}) },
	} {
		res := run()
		if len(res.Flows) != 0 || res.Transmissions != 0 || res.Makespan != 0 {
			t.Fatalf("%s: empty flow set produced work: %+v", name, res)
		}
		if got := res.DeliveryRatio(3); got != 0 {
			t.Fatalf("%s: delivery ratio %g for no flows", name, got)
		}
	}
}

// TestMultiMACWorkspaceReuse: a workspace survives runs of different
// sizes and flow counts without cross-run contamination.
func TestMultiMACWorkspaceReuse(t *testing.T) {
	mw := NewMultiMACWorkspace()
	for trial := 0; trial < 6; trial++ {
		nw := randomNet(t, 900+uint64(trial), 20+10*(trial%3), 7)
		n := nw.G.N()
		flows := multiFlows(n, 2+trial%4, 1+trial, Flooding{})
		got := mw.Run(nw.G, flows, MACOptions{Jitter: trial % 4})
		want := runMACMultiOracle(nw.G, flows, MACOptions{Jitter: trial % 4})
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d: reused workspace diverged from the oracle", trial)
		}
	}
}

// TestMultiMACSteadyStateAllocs pins the dense kernel's allocation
// budget: after a warm-up run on the same inputs, a reused workspace
// allocates only the returned MultiResult — the result, its flow slices
// and each flow's three presized maps (69 objects under Go 1.24's map
// implementation) — never per-node state. The contended flooding run
// below relays through hundreds of (flow, node) cells, so a per-cell
// allocation would blow far past the margin.
func TestMultiMACSteadyStateAllocs(t *testing.T) {
	nw := randomNet(t, 11, 80, 8)
	flows := multiFlows(nw.G.N(), 6, 1, Flooding{})
	mw := NewMultiMACWorkspace()
	opt := MACOptions{Jitter: 3}
	var res *MultiResult
	run := func() { res = mw.Run(nw.G, flows, opt) }
	run()
	forwarders := 0
	for _, fr := range res.Flows {
		forwarders += len(fr.Forwarders)
	}
	if forwarders < 100 {
		t.Fatalf("only %d forwarding cells; the run exercises too little", forwarders)
	}
	const measured, margin = 69, 4
	if avg := testing.AllocsPerRun(20, run); avg > measured+margin {
		t.Fatalf("reused workspace allocates %.1f/run, want <= %d", avg, measured+margin)
	}
}

func BenchmarkMultiMAC(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		nw := randomNet(b, uint64(n), n, 10)
		flows := multiFlows(nw.G.N(), 8, 2, Flooding{})
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				RunMACMulti(nw.G, flows, MACOptions{Jitter: 4})
			}
		})
	}
}
