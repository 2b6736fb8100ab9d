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
	return multiFlowsBy(n, count, gap, func(int) Protocol { return p })
}

// multiFlowsBy is multiFlows with flow i relaying through proto(i).
func multiFlowsBy(n, count, gap int, proto func(i int) Protocol) []MultiFlow {
	flows := make([]MultiFlow, count)
	for i := range flows {
		flows[i] = MultiFlow{
			Src:   (i * 7) % n,
			Dst:   (i*7 + n/2) % n,
			Start: i * gap,
			Seed:  uint64(1000 + i),
			Proto: proto(i),
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
			StaticCDS{Set: bitsetOf(n, 0, 2, 4, 6, 9), Label: "cds"},
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
	mw := new(MultiMACWorkspace)
	for trial := 0; trial < 5; trial++ {
		nw := randomNet(t, 800+uint64(trial), 40+10*trial, 9)
		n := nw.G.N()
		for _, jit := range []int{0, 3, 8} {
			for _, withFaults := range []bool{false, true} {
				for _, mk := range macProtos(nw.G) {
					// Overlapping starts: gap 1 guarantees heavy contention.
					// Every flow of either side relays through its own
					// instance.
					flowsA := multiFlowsBy(n, 6, 1, func(int) Protocol { return mk() })
					flowsB := multiFlowsBy(n, 6, 1, func(int) Protocol { return mk() })
					name := flowsA[0].Proto.Name()
					trA, trB := obs.NewTracer(1<<14), obs.NewTracer(1<<14)
					optA := MACOptions{Jitter: jit, Tracer: trA}
					optB := MACOptions{Jitter: jit, Tracer: trB}
					if withFaults {
						optA.Faults = burstOracle(t, n, uint64(70+trial))
						optB.Faults = burstOracle(t, n, uint64(70+trial))
					}
					a := runMACMultiOracle(nw.G, flowsA, optA)
					b := mw.Run(nw.G, flowsB, optB)
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("trial %d %s jit=%d faults=%v: oracle and engine multi-source runs differ:\n%+v\n%+v",
							trial, name, jit, withFaults, a, b)
					}
					if !bytes.Equal(traceBytes(t, trA), traceBytes(t, trB)) {
						t.Fatalf("trial %d %s jit=%d faults=%v: trace streams differ",
							trial, name, jit, withFaults)
					}
				}
			}
		}
	}
}

// upgradeCounter wraps a designating protocol and counts the duplicate
// copies that upgraded a node to a forwarder.
type upgradeCounter struct {
	Protocol
	upgrades *int
}

// OnDuplicate implements Protocol.
func (u upgradeCounter) OnDuplicate(v, x int, pkt Packet) (bool, Packet) {
	forward, out := u.Protocol.OnDuplicate(v, x, pkt)
	if forward {
		*u.upgrades++
	}
	return forward, out
}

// TestMultiMACMixedDuplicateActors runs declining flows (Flooding, Gossip,
// StaticCDS) and acting flows (DP, PDP, MPR) on one medium, so only some
// flows keep acted-payload lists, with faults and the tracer on. The
// result and the trace bytes must equal the oracle's, and some duplicate
// must have upgraded a node, or the acted-payload path ran unexercised.
func TestMultiMACMixedDuplicateActors(t *testing.T) {
	mw := new(MultiMACWorkspace)
	upgrades := 0
	for trial := 0; trial < 4; trial++ {
		nw := randomNet(t, 850+uint64(trial), 50+10*trial, 10)
		n := nw.G.N()
		mks := macProtos(nw.G)
		for _, jit := range []int{0, 3} {
			flowsA := multiFlowsBy(n, 12, 1, func(i int) Protocol { return mks[i%len(mks)]() })
			flowsB := multiFlowsBy(n, 12, 1, func(i int) Protocol {
				p := mks[i%len(mks)]()
				if actsOnDuplicates(p) {
					return upgradeCounter{Protocol: p, upgrades: &upgrades}
				}
				return p
			})
			trA, trB := obs.NewTracer(1<<15), obs.NewTracer(1<<15)
			optA := MACOptions{Jitter: jit, Tracer: trA, Faults: burstOracle(t, n, uint64(90+trial))}
			optB := MACOptions{Jitter: jit, Tracer: trB, Faults: burstOracle(t, n, uint64(90+trial))}
			a := runMACMultiOracle(nw.G, flowsA, optA)
			b := mw.Run(nw.G, flowsB, optB)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("trial %d jit=%d: oracle and engine mixed runs differ:\n%+v\n%+v", trial, jit, a, b)
			}
			if trA.Dropped() != 0 || !bytes.Equal(traceBytes(t, trA), traceBytes(t, trB)) {
				t.Fatalf("trial %d jit=%d: trace streams differ (or the ring dropped events)", trial, jit)
			}
		}
	}
	if upgrades == 0 {
		t.Fatal("no duplicate upgraded a node; the acted-payload path was not exercised")
	}
}

// TestMultiMACSharedRelaysMatchPrivate: MPR, DP and PDP keep no
// per-broadcast state, so flows that share one instance get the results
// of flows that each build their own.
func TestMultiMACSharedRelaysMatchPrivate(t *testing.T) {
	nw := randomNet(t, 870, 60, 10)
	n := nw.G.N()
	for _, mk := range []func(*graph.Graph) Protocol{
		func(g *graph.Graph) Protocol { return NewMPR(g) },
		func(g *graph.Graph) Protocol { return NewDP(g) },
		func(g *graph.Graph) Protocol { return NewPDP(g) },
	} {
		shared := mk(nw.G)
		for _, jit := range []int{0, 3} {
			opt := MACOptions{Jitter: jit}
			a := RunMACMulti(nw.G, multiFlowsBy(n, 12, 1, func(int) Protocol { return shared }), opt)
			b := RunMACMulti(nw.G, multiFlowsBy(n, 12, 1, func(int) Protocol { return mk(nw.G) }), opt)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s jit=%d: flows sharing one instance differ from flows with their own", shared.Name(), jit)
			}
		}
	}
}

// TestMultiMACDecliningRunKeepsNoActedState: a run whose flows all embed
// NoDuplicates sizes no acted-payload state; one acting flow does.
func TestMultiMACDecliningRunKeepsNoActedState(t *testing.T) {
	nw := randomNet(t, 860, 60, 9)
	n := nw.G.N()
	mw := new(MultiMACWorkspace)
	mks := macProtos(nw.G)
	mw.Run(nw.G, multiFlowsBy(n, 3, 1, func(i int) Protocol { return mks[i]() }), MACOptions{Jitter: 2})
	if mw.actedSeg != nil || cap(mw.acted) != 0 {
		t.Fatalf("declining flows sized acted state: %d segments, arena cap %d", len(mw.actedSeg), cap(mw.acted))
	}
	mw.Run(nw.G, multiFlowsBy(n, 4, 1, func(i int) Protocol { return mks[i]() }), MACOptions{Jitter: 2})
	if len(mw.actedSeg) != 4*n || len(mw.acted) == 0 {
		t.Fatalf("a DP flow kept no acted payloads: %d segments, %d entries", len(mw.actedSeg), len(mw.acted))
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
// against the scalar oracle on fuzzer-chosen flow schedules. proto picks
// the flows' protocol: gossip, DP, PDP or MPR for every flow, or a
// rotation through all four on one medium, each flow of either side
// with its own instance. One workspace serves a run at the chosen size,
// a smaller one, the chosen size again, and a larger one, so its
// per-(flow, node) state is resliced down and up between runs.
func FuzzMultiMACScalarDESAgree(f *testing.F) {
	f.Add(uint64(1), 40, 8, 3, 4, 2, uint64(9), uint8(0))
	f.Add(uint64(7), 25, 6, 0, 2, 0, uint64(2), uint8(0))
	f.Add(uint64(42), 60, 10, 12, 6, 5, uint64(77), uint8(0))
	f.Add(uint64(3), 50, 9, 0, 5, 1, uint64(4), uint8(1))
	f.Add(uint64(5), 45, 8, 2, 3, 0, uint64(6), uint8(2))
	f.Add(uint64(8), 55, 10, 1, 4, 3, uint64(7), uint8(3))
	f.Add(uint64(13), 60, 9, 3, 8, 1, uint64(12), uint8(4))
	f.Fuzz(func(t *testing.T, topoSeed uint64, n, deg, jitter, nflows, gap int, seed uint64, proto uint8) {
		if n < 5 || n > 100 || deg < 3 || deg > 14 || jitter < 0 || jitter > 16 ||
			nflows < 1 || nflows > 8 || gap < 0 || gap > 64 {
			t.Skip()
		}
		mw := new(MultiMACWorkspace)
		sizes := [][2]int{{n, nflows}, {n/2 + 3, nflows/2 + 1}, {n, nflows}, {n + 17, nflows + 3}}
		for k, sz := range sizes {
			nw := randomNet(t, topoSeed+uint64(k), sz[0], float64(deg))
			nn := nw.G.N()
			mk := func(i int) Protocol {
				kind := int(proto % 5)
				if kind == 4 {
					kind = i % 4
				}
				return macFuzzProto(nw.G, kind, Gossip{P: 0.85, Seed: seed + uint64(i)})
			}
			r := rng.New(seed + uint64(k))
			flowsA := make([]MultiFlow, sz[1])
			flowsB := make([]MultiFlow, sz[1])
			for i := range flowsA {
				flowsA[i] = MultiFlow{
					Src:   r.Intn(nn),
					Dst:   r.Intn(nn),
					Start: i * gap,
					Seed:  r.Uint64(),
					Proto: mk(i),
				}
				flowsB[i] = flowsA[i]
				flowsB[i].Proto = mk(i)
			}
			opt := MACOptions{Jitter: jitter}
			a := runMACMultiOracle(nw.G, flowsA, opt)
			b := mw.Run(nw.G, flowsB, opt)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("run %d (n=%d, %d flows): oracle and engine multi-source runs differ:\n%+v\n%+v",
					k, nn, len(flowsA), a, b)
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
	mw := new(MultiMACWorkspace)
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
	mw := new(MultiMACWorkspace)
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

// BenchmarkMultiMAC times one call of the multi-source MAC kernel in the
// traffic-5k shape: n=5,000 at d=18, 32 overlapping flows, contention
// window 3. The flooding row relays through a protocol that embeds
// NoDuplicates; the DP row through designating instances, one per flow,
// whose duplicates can upgrade a node, so its flows keep acted-payload
// lists. Every call gets fresh instances, built with the timer stopped,
// so each timed DP call computes its forward lists: instances reused
// across calls keep them cached, and the row would time the engine alone.
func BenchmarkMultiMAC(b *testing.B) {
	nw := randomNet(b, 5000, 5000, 18)
	n := nw.G.N()
	for _, row := range []struct {
		name  string
		proto func(int) Protocol
	}{
		{"flooding", func(int) Protocol { return Flooding{} }},
		{"dp", func(int) Protocol { return NewDP(nw.G) }},
	} {
		b.Run(fmt.Sprintf("n=%d/flows=32/%s", n, row.name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				flows := multiFlowsBy(n, 32, 1, row.proto)
				b.StartTimer()
				RunMACMulti(nw.G, flows, MACOptions{Jitter: 3})
			}
		})
	}
}
