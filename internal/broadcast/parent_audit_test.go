package broadcast

import (
	"reflect"
	"testing"

	"clustercast/internal/graph"
)

// auditParentChains is the engine-independent delivery-tree contract:
// every received node except the source has a parent; the parent itself
// received the packet; parent links are edges of g; every chain reaches
// the source without revisiting a node (acyclic, source-rooted); and no
// unreached node — in particular none whose copies were all collided or
// suppressed — records a parent.
func auditParentChains(t *testing.T, g *graph.Graph, engine string, res *Result) {
	t.Helper()
	src := res.Source
	if !res.Received[src] {
		t.Fatalf("%s: source %d not in its own Received set", engine, src)
	}
	if _, ok := res.Parent[src]; ok {
		t.Fatalf("%s: source %d records a parent", engine, src)
	}
	for v := range res.Parent {
		if !res.Received[v] {
			t.Fatalf("%s: node %d has a parent but never received", engine, v)
		}
	}
	for v := range res.Received {
		if v == src {
			continue
		}
		seen := map[int]bool{}
		for x := v; x != src; {
			if seen[x] {
				t.Fatalf("%s: parent cycle through node %d (start %d)", engine, x, v)
			}
			seen[x] = true
			p, ok := res.Parent[x]
			if !ok {
				t.Fatalf("%s: broken parent chain at node %d (start %d)", engine, x, v)
			}
			if !g.HasEdge(p, x) {
				t.Fatalf("%s: parent link %d→%d is not an edge", engine, p, x)
			}
			if !res.Received[p] {
				t.Fatalf("%s: parent %d of %d never received", engine, p, x)
			}
			x = p
		}
	}
}

// TestParentChainAudit runs the delivery-tree contract against every
// engine — ideal/lossy/faulted/timed/MAC/multi-MAC, and the scalar
// oracles they are checked against — over random topologies and
// protocols.
func TestParentChainAudit(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		nw := randomNet(t, 1100+uint64(trial), 40+10*trial, 8)
		n := nw.G.N()
		source := (trial * 3) % n

		type run struct {
			name string
			res  *Result
		}
		var runs []run
		add := func(name string, res *Result) { runs = append(runs, run{name, res}) }

		for _, p := range []Protocol{
			Flooding{},
			Gossip{P: 0.7, Seed: 11},
			StaticCDS{Set: bitsetOf(n, 0, 1, 3, 5, 8), Label: "cds"},
		} {
			add("Run/"+p.Name(), Run(nw.G, source, p))

			lossy := Options{Loss: 0.2, Seed: uint64(trial)}
			add("RunOpts-lossy/"+p.Name(),
				NewWorkspace().RunOpts(nw.G, source, p, lossy).Materialize())
			add("oracle-lossy/"+p.Name(), runIdealOracle(nw.G, source, p, lossy))

			faulted := Options{Faults: burstOracle(t, n, uint64(20+trial))}
			add("RunOpts-faults/"+p.Name(),
				NewWorkspace().RunOpts(nw.G, source, p, faulted).Materialize())

			mac := MACOptions{Jitter: 3, Seed: uint64(trial)}
			add("RunMAC/"+p.Name(), &RunMAC(nw.G, source, p, mac).Result)
			add("oracle-MAC/"+p.Name(), &runMACOracle(nw.G, source, p, mac).Result)
			macF := MACOptions{Jitter: 2, Seed: uint64(trial), Faults: burstOracle(t, n, uint64(30+trial))}
			add("RunMAC-faults/"+p.Name(), &RunMAC(nw.G, source, p, macF).Result)

			flows := multiFlows(n, 5, 1, p)
			for i, fr := range RunMACMulti(nw.G, flows, MACOptions{Jitter: 2}).Flows {
				if i == 0 {
					add("RunMACMulti/"+p.Name(), &fr.Result)
				}
				auditParentChains(t, nw.G, "RunMACMulti/"+p.Name(), &fr.Result)
			}
			for _, fr := range runMACMultiOracle(nw.G, flows, MACOptions{Jitter: 2}).Flows {
				auditParentChains(t, nw.G, "oracle-MACMulti/"+p.Name(), &fr.Result)
			}
		}

		for _, tp := range []TimedProtocol{
			NewSBA(nw.G, 6, 17),
			CounterBased{Threshold: 3, MaxDelay: 5, Seed: 23},
		} {
			add("RunTimed/"+tp.Name(), RunTimedOpts(nw.G, source, tp, TimedOptions{}))
			add("oracle-timed/"+tp.Name(), runTimedOracle(nw.G, source, tp, TimedOptions{}))
			tf := TimedOptions{Faults: burstOracle(t, n, uint64(40+trial))}
			add("RunTimed-faults/"+tp.Name(), RunTimedOpts(nw.G, source, tp, tf))
		}

		for _, r := range runs {
			auditParentChains(t, nw.G, r.name, r.res)
		}
	}
}

// TestCollidedDeliveriesRecordNoParent pins the collision/parent
// interaction directly: on the diamond every copy reaching node 3
// collides (Jitter 0), so 3 must appear in neither Received nor Parent.
func TestCollidedDeliveriesRecordNoParent(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	for name, res := range map[string]*CollisionResult{
		"oracle": runMACOracle(g, 0, Flooding{}, MACOptions{}),
		"engine": RunMAC(g, 0, Flooding{}, MACOptions{}),
	} {
		if res.Received[3] {
			t.Fatalf("%s: node 3 decoded through a guaranteed collision", name)
		}
		if _, ok := res.Parent[3]; ok {
			t.Fatalf("%s: collided node 3 recorded a parent", name)
		}
		if res.Collisions == 0 {
			t.Fatalf("%s: no collision recorded on the diamond", name)
		}
	}
}

// FuzzParentScalarDESAgree pins the production engines' Parent maps to
// the scalar oracles' on fuzzer-chosen points for the ideal, lossy, MAC,
// multi-source MAC and back-off engines — the delivery tree, not just the
// delivery set, is part of the equivalence contract (routes are
// extracted from it).
func FuzzParentScalarDESAgree(f *testing.F) {
	f.Add(uint64(1), 40, 8, 3, uint64(9), float64(0.2))
	f.Add(uint64(7), 25, 6, 0, uint64(2), float64(0.0))
	f.Add(uint64(42), 60, 10, 12, uint64(77), float64(0.4))
	f.Fuzz(func(t *testing.T, topoSeed uint64, n, deg, jitter int, seed uint64, loss float64) {
		if n < 5 || n > 100 || deg < 3 || deg > 14 || jitter < 0 || jitter > 16 || loss < 0 || loss > 0.9 {
			t.Skip()
		}
		nw := randomNet(t, topoSeed, n, float64(deg))
		nn := nw.G.N()
		p := Gossip{P: 0.85, Seed: seed + 1}

		opt := Options{Loss: loss, Seed: seed}
		a := runIdealOracle(nw.G, 0, p, opt)
		b := NewWorkspace().RunOpts(nw.G, 0, p, opt).Materialize()
		if !reflect.DeepEqual(a.Parent, b.Parent) {
			t.Fatalf("ideal/lossy Parent maps differ:\n%v\n%v", a.Parent, b.Parent)
		}
		auditParentChains(t, nw.G, "fuzz-ideal", b)

		mo := MACOptions{Jitter: jitter, Seed: seed}
		ma := runMACOracle(nw.G, 0, p, mo)
		mb := RunMAC(nw.G, 0, p, mo)
		if !reflect.DeepEqual(ma.Parent, mb.Parent) {
			t.Fatalf("MAC Parent maps differ:\n%v\n%v", ma.Parent, mb.Parent)
		}
		auditParentChains(t, nw.G, "fuzz-mac", &mb.Result)

		flows := []MultiFlow{
			{Src: 0, Dst: nn - 1, Start: 0, Seed: seed, Proto: p},
			{Src: nn / 2, Dst: 1 % nn, Start: 1, Seed: seed + 2, Proto: p},
		}
		wa := runMACMultiOracle(nw.G, flows, MACOptions{Jitter: jitter})
		wb := RunMACMulti(nw.G, flows, MACOptions{Jitter: jitter})
		for i := range flows {
			if !reflect.DeepEqual(wa.Flows[i].Parent, wb.Flows[i].Parent) {
				t.Fatalf("multi flow %d Parent maps differ:\n%v\n%v",
					i, wa.Flows[i].Parent, wb.Flows[i].Parent)
			}
			auditParentChains(t, nw.G, "fuzz-multi", &wb.Flows[i].Result)
		}

		ta := runTimedOracle(nw.G, 0, NewSBA(nw.G, jitter, seed), TimedOptions{})
		tb := RunTimedOpts(nw.G, 0, NewSBA(nw.G, jitter, seed), TimedOptions{})
		if !reflect.DeepEqual(ta.Parent, tb.Parent) {
			t.Fatalf("back-off Parent maps differ:\n%v\n%v", ta.Parent, tb.Parent)
		}
		auditParentChains(t, nw.G, "fuzz-timed", tb)
	})
}
