package core_test

import (
	"fmt"

	"clustercast/internal/core"
	"clustercast/internal/graph"
	"clustercast/internal/topology"
)

// paperNetwork builds the 10-node example network of the paper's Figure 3
// (0-based IDs).
func paperNetwork() *core.Network {
	edges := [][2]int{
		{0, 4}, {0, 5}, {0, 6}, {1, 5}, {1, 7},
		{2, 6}, {2, 7}, {2, 8}, {2, 9}, {3, 8}, {3, 9}, {4, 8},
	}
	return core.FromTopology(&topology.Network{G: graph.FromEdges(10, edges)})
}

// The paper's running example: the static backbone selects 9 of the 10
// nodes; the dynamic backbone broadcast from node 0 uses only 7.
func Example() {
	nw := paperNetwork()

	static := nw.StaticBackbone(core.Hop25)
	fmt.Println("static backbone size:", static.Size())

	res := nw.DynamicBroadcast(core.Hop25, 0)
	fmt.Println("dynamic forward nodes:", res.ForwardCount())
	fmt.Println("delivered to all:", len(res.Received) == nw.N())
	// Output:
	// static backbone size: 9
	// dynamic forward nodes: 7
	// delivered to all: true
}

// ExampleNetwork_Heads shows the lowest-ID clusterhead election on the
// paper's example network.
func ExampleNetwork_Heads() {
	nw := paperNetwork()
	fmt.Println(nw.Heads())
	// Output: [0 1 2 3]
}

// ExampleNetwork_Flood contrasts blind flooding with the backbone: every
// node forwards.
func ExampleNetwork_Flood() {
	nw := paperNetwork()
	res := nw.Flood(0)
	fmt.Println("flooding forward nodes:", res.ForwardCount())
	// Output: flooding forward nodes: 10
}

// ExampleNetwork_MOCDS builds the paper's comparison baseline.
func ExampleNetwork_MOCDS() {
	nw := paperNetwork()
	mo := nw.MOCDS()
	fmt.Println("MO_CDS is a valid CDS:", nw.Graph().IsCDSBits(mo))
	// Output: MO_CDS is a valid CDS: true
}

// ExampleNewRandomNetwork draws a reproducible random scenario in the
// paper's 100×100 working space.
func ExampleNewRandomNetwork() {
	nw, err := core.NewRandomNetwork(core.NetworkSpec{N: 50, AvgDegree: 6, Seed: 7})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("nodes:", nw.N())
	fmt.Println("connected:", nw.Graph().Connected())
	// Output:
	// nodes: 50
	// connected: true
}
