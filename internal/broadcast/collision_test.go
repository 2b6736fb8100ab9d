package broadcast

import (
	"testing"

	"clustercast/internal/graph"
	"clustercast/internal/rng"
)

func TestMACNoCollisionOnPath(t *testing.T) {
	// A path has one transmitter per slot: no collisions, full delivery.
	g := graph.FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	res := RunMAC(g, 0, Flooding{}, MACOptions{})
	if res.Collisions != 0 {
		t.Fatalf("path flooding had %d collisions", res.Collisions)
	}
	if len(res.Received) != 5 {
		t.Fatalf("delivered %d/5", len(res.Received))
	}
}

func TestMACCollisionOnDiamond(t *testing.T) {
	// Diamond 0-{1,2}-3: 1 and 2 both hear the source in slot 0 and, with
	// no jitter, transmit simultaneously in slot 1 — node 3 hears both and
	// decodes neither.
	g := graph.FromEdges(4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	res := RunMAC(g, 0, Flooding{}, MACOptions{})
	if res.Collisions == 0 {
		t.Fatal("diamond must produce a collision at node 3")
	}
	if res.Received[3] {
		t.Fatal("node 3 must lose both copies without jitter")
	}
	if res.DeliveryRatio(4) != 0.75 {
		t.Fatalf("delivery = %g, want 0.75", res.DeliveryRatio(4))
	}
}

func TestMACJitterResolvesDiamond(t *testing.T) {
	g := graph.FromEdges(4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	// Find a seed where the two relays draw different jitter.
	for seed := uint64(0); seed < 64; seed++ {
		res := RunMAC(g, 0, Flooding{}, MACOptions{Jitter: 3, Seed: seed})
		if res.Received[3] {
			if res.Collisions != 0 {
				t.Fatalf("seed %d: node 3 received yet collisions=%d at it?", seed, res.Collisions)
			}
			return
		}
	}
	t.Fatal("no seed separated the relays within 64 tries")
}

func TestMACDeterministic(t *testing.T) {
	nw := randomNet(t, 61, 60, 12)
	a := RunMAC(nw.G, 0, Flooding{}, MACOptions{Jitter: 4, Seed: 9})
	b := RunMAC(nw.G, 0, Flooding{}, MACOptions{Jitter: 4, Seed: 9})
	if len(a.Received) != len(b.Received) || a.Collisions != b.Collisions {
		t.Fatal("equal seeds must replicate")
	}
}

// TestMACStormCollapse demonstrates the broadcast storm: on dense
// networks, flooding under collisions delivers far worse than the dynamic
// backbone under the same MAC, and suffers far more collisions.
func TestMACStormCollapse(t *testing.T) {
	root := rng.New(6)
	var floodDelivered, floodCollisions int
	var cdsDelivered, cdsCollisions int
	const trials = 15
	for i := 0; i < trials; i++ {
		nw := randomNet(t, 100+uint64(i), 80, 18)
		src := root.Intn(80)
		dist := nw.G.BFS(src)
		thin := graph.NewBitset(len(dist))
		for v, d := range dist {
			if d%2 == 0 {
				thin.Add(v)
			}
		}
		opt := MACOptions{Jitter: 3, Seed: uint64(i)}
		flood := RunMAC(nw.G, src, Flooding{}, opt)
		cds := RunMAC(nw.G, src, StaticCDS{Set: thin}, opt)
		floodDelivered += len(flood.Received)
		cdsDelivered += len(cds.Received)
		floodCollisions += flood.Collisions
		cdsCollisions += cds.Collisions
	}
	if floodCollisions <= cdsCollisions {
		t.Fatalf("flooding collisions %d should exceed thin-set collisions %d",
			floodCollisions, cdsCollisions)
	}
	t.Logf("delivered over %d trials of 80 nodes: flooding=%d (collisions %d), thin-set=%d (collisions %d)",
		trials, floodDelivered, floodCollisions, cdsDelivered, cdsCollisions)
}

// TestMACJitterImprovesDelivery shows the contention-window effect: a
// wider window spreads transmissions over more slots, so more copies
// decode and the flood reaches more nodes. (Raw collision counts can go
// either way — a collapsed flood stops early and stops colliding — so
// delivery is the meaningful metric.)
func TestMACJitterImprovesDelivery(t *testing.T) {
	var tight, wide int
	for i := uint64(0); i < 10; i++ {
		nw := randomNet(t, 200+i, 60, 18)
		tight += len(RunMAC(nw.G, 0, Flooding{}, MACOptions{Jitter: 0, Seed: i}).Received)
		wide += len(RunMAC(nw.G, 0, Flooding{}, MACOptions{Jitter: 8, Seed: i}).Received)
	}
	if wide <= tight {
		t.Fatalf("jitter 8 delivered %d, should beat jitter 0's %d", wide, tight)
	}
	t.Logf("delivered: jitter0=%d jitter8=%d (of 600)", tight, wide)
}

func BenchmarkMAC100(b *testing.B) {
	nw := randomNet(b, 1, 100, 18)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = RunMAC(nw.G, i%100, Flooding{}, MACOptions{Jitter: 4, Seed: uint64(i)})
	}
}
