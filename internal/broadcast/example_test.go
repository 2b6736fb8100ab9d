package broadcast_test

import (
	"fmt"

	"clustercast/internal/broadcast"
	"clustercast/internal/graph"
)

// A 6-node network: two triangles joined by a bridge.
func bridgeGraph() *graph.Graph {
	return graph.FromEdges(6, [][2]int{
		{0, 1}, {0, 2}, {1, 2},
		{2, 3},
		{3, 4}, {3, 5}, {4, 5},
	})
}

// Blind flooding makes every node transmit once.
func ExampleRun() {
	g := bridgeGraph()
	res := broadcast.Run(g, 0, broadcast.Flooding{})
	fmt.Println("forwarders:", res.ForwardCount())
	fmt.Println("delivery:", res.DeliveryRatio(g.N()))
	// Output:
	// forwarders: 6
	// delivery: 1
}

// A static CDS confines forwarding to the bridge {2, 3}.
func ExampleStaticCDS() {
	g := bridgeGraph()
	bridge := graph.NewBitset(g.N())
	bridge.Add(2)
	bridge.Add(3)
	res := broadcast.Run(g, 0, broadcast.StaticCDS{Set: bridge})
	fmt.Println("forwarders:", res.ForwardCount()) // source + the two bridge nodes
	fmt.Println("delivered to all:", len(res.Received) == g.N())
	// Output:
	// forwarders: 3
	// delivered to all: true
}

// Back-off self-pruning (the paper's §3 first technique): with 2-hop
// knowledge only the bridge nodes relay — every triangle peer sees its
// whole neighborhood already covered and resigns.
func ExampleRunTimed() {
	g := bridgeGraph()
	res := broadcast.RunTimed(g, 0, broadcast.NewSBA(g, 4, 1))
	fmt.Println("delivered to all:", len(res.Received) == g.N())
	fmt.Println("saved vs flooding:", 6-res.ForwardCount())
	// Output:
	// delivered to all: true
	// saved vs flooding: 3
}

// The collision model shows the broadcast storm: in the diamond, both
// relays transmit in the same slot and destroy each other's copy at the
// far node.
func ExampleRunMAC() {
	g := graph.FromEdges(4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	res := broadcast.RunMAC(g, 0, broadcast.Flooding{}, broadcast.MACOptions{})
	// Both relays fire in the same slot: their copies collide at node 3
	// (which gets nothing) and at the source (which already had the packet).
	fmt.Println("collisions:", res.Collisions)
	fmt.Println("node 3 reached:", res.Received[3])
	// Output:
	// collisions: 2
	// node 3 reached: false
}
