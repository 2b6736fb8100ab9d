package broadcast

import (
	"bytes"
	"reflect"
	"testing"

	"clustercast/internal/faults"
	"clustercast/internal/obs"
	"clustercast/internal/rng"
)

// Equivalence gates for the production engines: the scalar loops in the
// *_oracle_test.go files are the reference, and every engine must replay
// them bit-identically — results, protocol callbacks (observed through
// the results), randomness consumption, and the typed trace stream
// (compared as JSONL bytes).

// traceBytes drains a tracer to its canonical JSONL form.
func traceBytes(t *testing.T, tr *obs.Tracer) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// burstOracle builds a deterministic fault oracle with churn, bursty
// loss, and a partition window — every fault axis at once.
func burstOracle(t *testing.T, n int, seed uint64) *faults.Oracle {
	t.Helper()
	spec := faults.Spec{MeanUp: 40, MeanDown: 12, Seed: seed}
	if err := spec.SetBurst(0.15, 3); err != nil {
		t.Fatal(err)
	}
	spec.MeanUp, spec.MeanDown = 40, 12
	return faults.New(spec, n)
}

func TestDESIdealEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  func(n int) Options
	}{
		{"ideal", func(int) Options { return Options{} }},
		{"lossy", func(int) Options { return Options{Loss: 0.25, Seed: 99} }},
		{"faults", func(n int) Options { return Options{Faults: burstOracle(t, n, 7)} }},
		{"lossy-faults", func(n int) Options { return Options{Loss: 0.1, Seed: 3, Faults: burstOracle(t, n, 8)} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ws := NewWorkspace() // reused across every run
			for trial := 0; trial < 6; trial++ {
				nw := randomNet(t, 100+uint64(trial), 40+10*trial, 8)
				n := nw.G.N()
				ps := []Protocol{
					Flooding{},
					Gossip{P: 0.7, Seed: 11},
					StaticCDS{Set: map[int]bool{0: true, 1: true, 2: true, 5: true, 7: true}, Label: "cds"},
					NewDP(NewNeighborhood(nw.G)),
				}
				for _, p := range ps {
					source := trial % n
					trA, trB := obs.NewTracer(1<<14), obs.NewTracer(1<<14)
					optA, optB := tc.opt(n), tc.opt(n)
					optA.Tracer, optB.Tracer = trA, trB
					// Fresh oracles per engine: the oracle's per-link query
					// cursors are part of the replayed sequence.
					if optA.Faults != nil {
						optA.Faults = burstOracle(t, n, uint64(7+trial))
						optB.Faults = burstOracle(t, n, uint64(7+trial))
					}
					a := runIdealOracle(nw.G, source, p, optA)
					b := ws.RunOpts(nw.G, source, p, optB).Materialize()
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("trial %d %s: oracle and engine results differ:\n%+v\n%+v", trial, p.Name(), a, b)
					}
					if !bytes.Equal(traceBytes(t, trA), traceBytes(t, trB)) {
						t.Fatalf("trial %d %s: trace streams differ", trial, p.Name())
					}
				}
			}
		})
	}
}

func TestDESIdealMatchesLegacyRun(t *testing.T) {
	nw := randomNet(t, 5, 60, 9)
	a := runIdealOracle(nw.G, 3, Flooding{}, Options{})
	b := Run(nw.G, 3, Flooding{})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("package-level Run differs from the map-based oracle:\n%+v\n%+v", a, b)
	}
}

func TestDESTimedEquivalence(t *testing.T) {
	tw := NewTimedWorkspace() // reused across every run
	for trial := 0; trial < 6; trial++ {
		nw := randomNet(t, 200+uint64(trial), 40+10*trial, 8)
		n := nw.G.N()
		nb := NewNeighborhood(nw.G)
		ps := []TimedProtocol{
			NewSBA(nb, 6, 17),
			CounterBased{Threshold: 3, MaxDelay: 5, Seed: 23},
			DistanceBased{Positions: nw.Positions, MinDistance: 20, MaxDelay: 4, Seed: 29},
		}
		for _, withFaults := range []bool{false, true} {
			for _, p := range ps {
				source := (trial * 3) % n
				trA, trB := obs.NewTracer(1<<14), obs.NewTracer(1<<14)
				optA, optB := TimedOptions{Tracer: trA}, TimedOptions{Tracer: trB}
				if withFaults {
					optA.Faults = burstOracle(t, n, uint64(40+trial))
					optB.Faults = burstOracle(t, n, uint64(40+trial))
				}
				a := runTimedOracle(nw.G, source, p, optA)
				b := tw.Run(nw.G, source, p, optB)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("trial %d %s faults=%v: oracle and engine results differ:\n%+v\n%+v",
						trial, p.Name(), withFaults, a, b)
				}
				if !bytes.Equal(traceBytes(t, trA), traceBytes(t, trB)) {
					t.Fatalf("trial %d %s faults=%v: trace streams differ", trial, p.Name(), withFaults)
				}
			}
		}
	}
}

// oneFlow is RunMAC's flow: source at slot 0 with the run's jitter seed.
func oneFlow(source int, p Protocol, opt MACOptions) []MultiFlow {
	return []MultiFlow{{Src: source, Dst: -1, Seed: opt.Seed, Proto: p}}
}

func TestDESMACEquivalence(t *testing.T) {
	mw := NewMultiMACWorkspace() // reused across every one-flow run
	for trial := 0; trial < 5; trial++ {
		nw := randomNet(t, 300+uint64(trial), 40+12*trial, 9)
		n := nw.G.N()
		ps := []Protocol{
			Flooding{},
			Gossip{P: 0.8, Seed: 31},
			StaticCDS{Set: map[int]bool{0: true, 2: true, 4: true, 6: true, 9: true}, Label: "cds"},
		}
		for _, jit := range []int{0, 3, 8} {
			for _, withFaults := range []bool{false, true} {
				for _, p := range ps {
					source := (trial * 5) % n
					trA, trB := obs.NewTracer(1<<14), obs.NewTracer(1<<14)
					optA := MACOptions{Jitter: jit, Seed: uint64(60 + trial), Tracer: trA}
					optB := optA
					optB.Tracer = trB
					if withFaults {
						// Fresh oracles per engine: the oracle's per-link
						// query cursors are part of the replayed sequence.
						optA.Faults = burstOracle(t, n, uint64(70+trial))
						optB.Faults = burstOracle(t, n, uint64(70+trial))
					}
					a := runMACOracle(nw.G, source, p, optA)
					b := &mw.Run(nw.G, oneFlow(source, p, optB), optB).Flows[0].CollisionResult
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("trial %d %s jit=%d faults=%v: oracle and engine differ:\n%+v\n%+v",
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

// TestDESMACScheduleProperty is the randomized slot-schedule property
// gate: across random topologies, sources, seeds and contention
// windows, the MAC engine reproduces the scalar oracle's
// (slot, sender, trigger) schedule exactly — including slots assigned
// through the `slot := t + 1 + draw()` backoff path (Jitter > 0 makes
// every forward take it).
func TestDESMACScheduleProperty(t *testing.T) {
	schedule := func(tr *obs.Tracer) [][3]int {
		var out [][3]int
		for _, ev := range tr.Events() {
			if ev.Kind == obs.EvSend {
				out = append(out, [3]int{ev.T, ev.Node, ev.Peer})
			}
		}
		return out
	}
	r := rng.New(0xDE5)
	for trial := 0; trial < 40; trial++ {
		n := 20 + r.Intn(60)
		nw := randomNet(t, 500+uint64(trial), n, 6+float64(r.Intn(5)))
		n = nw.G.N()
		opt := MACOptions{
			Jitter: 1 + r.Intn(9), // always > 0: every relay goes through the backoff draw
			Seed:   r.Uint64(),
		}
		source := r.Intn(n)
		p := Gossip{P: 0.9, Seed: r.Uint64()}
		trA := obs.NewTracer(1 << 14)
		optA := opt
		optA.Tracer = trA
		runMACOracle(nw.G, source, p, optA)
		trB := obs.NewTracer(1 << 14)
		optB := opt
		optB.Tracer = trB
		RunMAC(nw.G, source, p, optB)
		a, b := schedule(trA), schedule(trB)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("trial %d (n=%d jitter=%d): (slot, sender, trigger) schedules diverge:\noracle %v\nengine %v",
				trial, n, opt.Jitter, a, b)
		}
		if len(a) == 0 {
			t.Fatalf("trial %d: empty schedule — property exercised nothing", trial)
		}
	}
}

// FuzzDESMACAgree cross-checks the MAC engine against the scalar oracle
// on fuzzer-chosen (size, degree, jitter, seed, gossip) points.
func FuzzDESMACAgree(f *testing.F) {
	f.Add(uint64(1), 40, 8, 3, uint64(9), float64(0.8))
	f.Add(uint64(7), 25, 6, 0, uint64(2), float64(1.0))
	f.Add(uint64(42), 60, 10, 12, uint64(77), float64(0.5))
	f.Fuzz(func(t *testing.T, topoSeed uint64, n, deg, jitter int, seed uint64, gp float64) {
		if n < 5 || n > 120 || deg < 3 || deg > 14 || jitter < 0 || jitter > 20 || gp < 0 || gp > 1 {
			t.Skip()
		}
		nw := randomNet(t, topoSeed, n, float64(deg))
		n = nw.G.N()
		p := Gossip{P: gp, Seed: seed + 1}
		opt := MACOptions{Jitter: jitter, Seed: seed}
		a := runMACOracle(nw.G, 0, p, opt)
		b := RunMAC(nw.G, 0, p, opt)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("oracle and engine MAC runs differ:\n%+v\n%+v", a, b)
		}
	})
}

// FuzzDESIdealAgree cross-checks the ideal-radio engine against the
// map-based oracle under fuzzer-chosen loss.
func FuzzDESIdealAgree(f *testing.F) {
	f.Add(uint64(1), 40, 8, float64(0.2), uint64(5))
	f.Add(uint64(3), 70, 6, float64(0.0), uint64(1))
	f.Fuzz(func(t *testing.T, topoSeed uint64, n, deg int, loss float64, seed uint64) {
		if n < 5 || n > 120 || deg < 3 || deg > 14 || loss < 0 || loss > 0.9 {
			t.Skip()
		}
		nw := randomNet(t, topoSeed, n, float64(deg))
		opt := Options{Loss: loss, Seed: seed}
		a := runIdealOracle(nw.G, 0, Flooding{}, opt)
		b := NewWorkspace().RunOpts(nw.G, 0, Flooding{}, opt).Materialize()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("oracle and engine ideal runs differ:\n%+v\n%+v", a, b)
		}
	})
}

// TestDESIdealSteadyStateAllocs pins the zero-allocation contract of
// the ideal engine's event loop on a reused workspace (alloc-free
// protocol).
func TestDESIdealSteadyStateAllocs(t *testing.T) {
	nw := randomNet(t, 9, 80, 8)
	ws := NewWorkspace()
	run := func() { ws.RunOpts(nw.G, 0, Flooding{}, Options{}) }
	run()
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Fatalf("ideal event loop allocates %.1f/run, want 0", avg)
	}
}

// TestDESMACSteadyStateAllocs pins the allocation budget of a one-flow
// MAC run on a reused workspace: only the result's own objects — the
// MultiResult, its flow slices and the flow's three presized maps —
// never per-node or per-slot state, so the count is the same constant
// for every network size and contention window below.
func TestDESMACSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		n      int
		jitter int
	}{{80, 0}, {80, 6}, {300, 0}, {300, 12}} {
		nw := randomNet(t, 10, tc.n, 8)
		mw := NewMultiMACWorkspace()
		opt := MACOptions{Jitter: tc.jitter, Seed: 4}
		flows := oneFlow(0, Flooding{}, opt)
		var res *MultiResult
		run := func() { res = mw.Run(nw.G, flows, opt) }
		run()
		if len(res.Flows[0].Received) < 15 {
			t.Fatalf("n=%d jitter=%d: only %d nodes reached; the run exercises too little",
				tc.n, tc.jitter, len(res.Flows[0].Received))
		}
		// 3 result objects plus 4 per presized map under Go 1.24's map
		// implementation (the maps stay within one table at these sizes).
		const measured = 15
		if avg := testing.AllocsPerRun(20, run); avg > measured {
			t.Fatalf("n=%d jitter=%d: reused workspace allocates %.1f/run, want <= %d",
				tc.n, tc.jitter, avg, measured)
		}
	}
}
