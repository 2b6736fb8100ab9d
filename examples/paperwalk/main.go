// Paperwalk replays the paper's §3 worked example (Figures 3 and 4) on
// the exact 10-node network, printing every step: cluster formation, the
// CH_HOP1/CH_HOP2 messages, each clusterhead's coverage set and GATEWAY
// selection, the resulting cluster graphs, and finally the SI-CDS vs
// SD-CDS broadcast comparison (9 vs 7 forward nodes).
//
// Node IDs are printed 1-based to match the paper's figures.
//
//	go run ./examples/paperwalk
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"clustercast/internal/backbone"
	"clustercast/internal/broadcast"
	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/dynamicb"
	"clustercast/internal/graph"
)

// paper prints a 0-based node ID the way the paper writes it.
func paper(v int) int { return v + 1 }

func paperList[T int | int32](vs []T) []int {
	out := make([]int, len(vs))
	for i, v := range vs {
		out[i] = paper(int(v))
	}
	sort.Ints(out)
	return out
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run prints the walkthrough to w.
func run(w io.Writer) error {
	// The network of Figure 3 (paper edges, shifted to 0-based).
	edges := [][2]int{
		{1, 5}, {1, 6}, {1, 7}, {2, 6}, {2, 8},
		{3, 7}, {3, 8}, {3, 9}, {3, 10}, {4, 9}, {4, 10}, {5, 9},
	}
	zero := make([][2]int, len(edges))
	for i, e := range edges {
		zero[i] = [2]int{e[0] - 1, e[1] - 1}
	}
	g := graph.FromEdges(10, zero)

	fmt.Fprintln(w, "== Figure 3(a): the 10-node network ==")
	fmt.Fprintf(w, "nodes 1..10, %d edges\n\n", g.M())

	fmt.Fprintln(w, "== Figure 3(b): lowest-ID clustering ==")
	cl := cluster.LowestID(g)
	for _, h := range cl.Heads {
		var members []int
		for v, hv := range cl.Head {
			if hv == h {
				members = append(members, v)
			}
		}
		fmt.Fprintf(w, "cluster C%d: head %d, members %v\n",
			paper(h), paper(h), paperList(members))
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "== CH_HOP1 / CH_HOP2 messages (2.5-hop coverage) ==")
	b := coverage.NewBuilder(g, cl, coverage.Hop25)
	for v := 0; v < g.N(); v++ {
		if cl.IsHead(v) {
			continue
		}
		fmt.Fprintf(w, "CH_HOP1(%d) = %v", paper(v), paperList(b.CH1(v)))
		if ch2 := b.CH2(v); len(ch2) > 0 {
			fmt.Fprintf(w, "   CH_HOP2(%d) = {", paper(v))
			first := true
			for _, x := range sortedKeys(ch2) {
				if !first {
					fmt.Fprint(w, ", ")
				}
				first = false
				fmt.Fprintf(w, "%d[%d]", paper(x), paper(ch2[x]))
			}
			fmt.Fprint(w, "}")
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "== coverage sets and GATEWAY selections ==")
	for _, h := range cl.Heads {
		cov := b.Of(h)
		sel := backbone.SelectGateways(cov, nil, nil)
		fmt.Fprintf(w, "C(%d) = C²%v ∪ C³%v  →  GATEWAY(%d) = %v\n",
			paper(h), paperList(cov.C2), paperList(cov.C3),
			paper(h), paperList(sel.Gateways))
	}
	static := backbone.BuildStaticFrom(b, cl)
	fmt.Fprintf(w, "static backbone (Figure 3(c)): %v — %d nodes\n\n",
		paperList(static.Nodes.Members()), static.Size())

	fmt.Fprintln(w, "== Figure 4: cluster graphs ==")
	d25, idx := coverage.ClusterGraph(b)
	fmt.Fprint(w, "2.5-hop: ")
	printClusterGraph(w, d25, idx, cl)
	b3 := coverage.NewBuilder(g, cl, coverage.Hop3)
	d3, idx3 := coverage.ClusterGraph(b3)
	fmt.Fprint(w, "3-hop:   ")
	printClusterGraph(w, d3, idx3, cl)
	fmt.Fprintln(w)

	fmt.Fprintln(w, "== broadcast from node 1: SI-CDS vs SD-CDS ==")
	sres := broadcast.Run(g, 0, broadcast.StaticCDS{Set: static.Nodes})
	fmt.Fprintf(w, "static  (SI-CDS): %d forward nodes %v\n",
		sres.ForwardCount(), paperList(sortedKeys(sres.Forwarders)))
	dres := dynamicb.New(g, cl, coverage.Hop25).Broadcast(0)
	fmt.Fprintf(w, "dynamic (SD-CDS): %d forward nodes %v\n",
		dres.ForwardCount(), paperList(sortedKeys(dres.Forwarders)))
	fmt.Fprintf(w, "\nthe paper's conclusion, reproduced: %d vs %d — the on-demand backbone\n"+
		"prunes the redundant relays (nodes 5 and 8 stay silent).\n",
		sres.ForwardCount(), dres.ForwardCount())
	return nil
}

// printClusterGraph renders directed cluster-graph edges with paper IDs.
func printClusterGraph(w io.Writer, d *graph.Digraph, idx map[int]int, cl *cluster.Clustering) {
	inv := make(map[int]int, len(idx))
	for head, i := range idx {
		inv[i] = head
	}
	var parts []string
	for u := 0; u < d.N(); u++ {
		for _, v := range d.Out(u) {
			parts = append(parts, fmt.Sprintf("%d→%d", paper(inv[u]), paper(inv[v])))
		}
	}
	sort.Strings(parts)
	fmt.Fprintln(w, parts)
}

// sortedKeys returns the keys of m, ascending.
func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
