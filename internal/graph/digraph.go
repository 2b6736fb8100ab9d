package graph

import (
	"fmt"
	"sort"
	"strings"
)

// Digraph is a directed simple graph over nodes 0..n−1. It models the
// *cluster graph* G′ of the paper: one vertex per cluster(head) and a
// directed link (v, w) whenever clusterhead w belongs to v's coverage set.
// With the 3-hop coverage set the cluster graph is symmetric; with the
// 2.5-hop coverage set it may be genuinely directed, and the correctness of
// the backbone (Theorem 1) rests on it being strongly connected.
type Digraph struct {
	out   [][]int
	in    [][]int
	edges int
}

// NewDigraph returns a digraph with n isolated nodes.
func NewDigraph(n int) *Digraph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Digraph{out: make([][]int, n), in: make([][]int, n)}
}

// N returns the number of nodes.
func (d *Digraph) N() int { return len(d.out) }

// M returns the number of directed edges.
func (d *Digraph) M() int { return d.edges }

// AddEdge inserts the directed edge (u, v). Duplicates and self-loops
// panic, as in Graph.
func (d *Digraph) AddEdge(u, v int) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	if d.HasEdge(u, v) {
		panic(fmt.Sprintf("graph: duplicate edge (%d,%d)", u, v))
	}
	d.out[u] = insertInt(d.out[u], v)
	d.in[v] = insertInt(d.in[v], u)
	d.edges++
}

func insertInt(list []int, v int) []int {
	i := sort.SearchInts(list, v)
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = v
	return list
}

// HasEdge reports whether (u, v) is an edge.
func (d *Digraph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(d.out) || v < 0 || v >= len(d.out) {
		return false
	}
	list := d.out[u]
	i := sort.SearchInts(list, v)
	return i < len(list) && list[i] == v
}

// Out returns the sorted out-neighbors of u (owned by the digraph).
func (d *Digraph) Out(u int) []int { return d.out[u] }

// In returns the sorted in-neighbors of u (owned by the digraph).
func (d *Digraph) In(u int) []int { return d.in[u] }

// reachableFrom returns the number of nodes reachable from src following
// the given adjacency.
func reachableFrom(adj [][]int, src int) int {
	seen := make([]bool, len(adj))
	seen[src] = true
	queue := []int{src}
	count := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				count++
				queue = append(queue, v)
			}
		}
	}
	return count
}

// StronglyConnected reports whether every node can reach every other node.
// Graphs with 0 or 1 nodes are strongly connected. Implemented as forward +
// reverse reachability from node 0 (sufficient for strong connectivity of
// the whole graph).
func (d *Digraph) StronglyConnected() bool {
	n := len(d.out)
	if n <= 1 {
		return true
	}
	return reachableFrom(d.out, 0) == n && reachableFrom(d.in, 0) == n
}

// DOT renders the digraph in Graphviz DOT format with deterministic
// ordering; labels maps node index to a display label (defaults to the
// index).
func (d *Digraph) DOT(name string, labels map[int]string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %s {\n", name)
	for u := 0; u < len(d.out); u++ {
		label := labels[u]
		if label == "" {
			label = fmt.Sprint(u)
		}
		fmt.Fprintf(&b, "  %d [label=%q];\n", u, label)
	}
	for u := 0; u < len(d.out); u++ {
		for _, v := range d.out[u] {
			fmt.Fprintf(&b, "  %d -> %d;\n", u, v)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
