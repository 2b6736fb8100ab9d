// Package graph provides the undirected-graph substrate for the MANET
// simulator: adjacency storage, traversals, k-hop neighborhoods,
// connectivity queries, and verification predicates for dominating sets and
// connected dominating sets (CDS).
//
// Nodes are identified by dense integer IDs 0..n−1. In the MANET model the
// ID doubles as the node's unique address, and the lowest-ID clustering
// algorithm gives smaller IDs election priority.
package graph

import (
	"fmt"
	"sort"
	"strings"
)

// Graph is an undirected simple graph over nodes 0..n−1 stored as sorted
// adjacency lists, in one of two layouts:
//
//   - list mode: one []int per node (adj), the incremental-construction
//     layout used by AddEdge and the mobility maintenance path;
//   - CSR mode: one flat neighbor array indexed by an offset array
//     (off/flat), the compressed-sparse-row layout the topology hot path
//     fills in two passes with zero per-node allocations.
//
// Neighbors(u) is a zero-copy slice view in both modes, so traversal code
// is layout-agnostic. The zero value is an empty graph with no nodes; use
// New to create a graph with a fixed node count.
type Graph struct {
	adj   [][]int // list mode; nil when off is set
	off   []int   // CSR mode: neighbors of u are flat[off[u]:off[u+1]]
	flat  []int
	n     int
	edges int
}

// New returns a graph with n isolated nodes (list mode).
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Graph{adj: make([][]int, n), n: n}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.edges }

// AddEdge inserts the undirected edge {u, v}. Self-loops and duplicate
// edges are rejected with a panic: the unit-disk model never produces them,
// so their appearance indicates a bug in the caller. On a CSR-mode graph
// the adjacency is first materialized back into per-node lists — edge
// insertion is a construction-time operation, not a hot-path one.
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	if g.HasEdge(u, v) {
		panic(fmt.Sprintf("graph: duplicate edge {%d,%d}", u, v))
	}
	if g.off != nil {
		g.materializeLists()
	}
	g.insertSorted(u, v)
	g.insertSorted(v, u)
	g.edges++
}

// materializeLists converts a CSR-mode graph back to list mode, copying
// each neighbor segment into its own growable slice.
func (g *Graph) materializeLists() {
	adj := make([][]int, g.n)
	for u := 0; u < g.n; u++ {
		adj[u] = append([]int(nil), g.flat[g.off[u]:g.off[u+1]]...)
	}
	g.adj = adj
	g.off, g.flat = nil, nil
}

func (g *Graph) insertSorted(u, v int) {
	list := g.adj[u]
	i := sort.SearchInts(list, v)
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = v
	g.adj[u] = list
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	list := g.Neighbors(u)
	i := sort.SearchInts(list, v)
	return i < len(list) && list[i] == v
}

// Neighbors returns the sorted adjacency list of u. The returned slice is
// owned by the graph and must not be modified.
func (g *Graph) Neighbors(u int) []int {
	if g.off != nil {
		return g.flat[g.off[u]:g.off[u+1]:g.off[u+1]]
	}
	return g.adj[u]
}

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u int) int {
	if g.off != nil {
		return g.off[u+1] - g.off[u]
	}
	return len(g.adj[u])
}

// MaxDegree returns Δ(G), the maximum node degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for u := 0; u < g.n; u++ {
		if d := g.Degree(u); d > max {
			max = d
		}
	}
	return max
}

// AvgDegree returns the average node degree 2m/n (0 for an empty graph).
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return 2 * float64(g.edges) / float64(g.n)
}

// Clone returns a deep copy of g, preserving the storage layout.
func (g *Graph) Clone() *Graph {
	c := &Graph{n: g.n, edges: g.edges}
	if g.off != nil {
		c.off = append([]int(nil), g.off...)
		c.flat = append([]int(nil), g.flat...)
		return c
	}
	c.adj = make([][]int, len(g.adj))
	for i, l := range g.adj {
		c.adj[i] = append([]int(nil), l...)
	}
	return c
}

// Edges returns all edges as ordered pairs (u < v), sorted.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.edges)
	for u := 0; u < g.n; u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	return out
}

// BFS runs a breadth-first search from src and returns dist[v] = hop count
// from src, with −1 for unreachable nodes.
func (g *Graph) BFS(src int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// KHop returns N^k(v): the set of nodes within k hops of v, including v
// itself, as a sorted slice. K must be >= 0.
func (g *Graph) KHop(v, k int) []int {
	if k < 0 {
		panic("graph: negative k")
	}
	dist := map[int]int{v: 0}
	frontier := []int{v}
	for hop := 0; hop < k && len(frontier) > 0; hop++ {
		var next []int
		for _, u := range frontier {
			for _, w := range g.Neighbors(u) {
				if _, ok := dist[w]; !ok {
					dist[w] = hop + 1
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	out := make([]int, 0, len(dist))
	for u := range dist {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// Connected reports whether g is connected. The empty graph and the
// single-node graph are connected. It borrows a pooled traversal scratch,
// so the rejection-sampling loop of topology generation allocates nothing
// here.
func (g *Graph) Connected() bool {
	s := getScratch()
	ok := g.ConnectedWith(s)
	putScratch(s)
	return ok
}

// Components returns the connected components of g, each as a sorted slice
// of node IDs, ordered by their smallest member.
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.n)
	var comps [][]int
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		var comp []int
		queue := []int{s}
		seen[s] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			comp = append(comp, u)
			for _, v := range g.Neighbors(u) {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// InducedSubgraphConnected reports whether the subgraph induced by the node
// set is connected (a set of size 0 or 1 counts as connected). It is the
// connectivity half of the CDS predicate.
func (g *Graph) InducedSubgraphConnected(set map[int]bool) bool {
	s := getScratch()
	ok := g.InducedConnected(s, BitsetFromSet(g.n, set))
	putScratch(s)
	return ok
}

// IsDominatingSet reports whether every node is in the set or adjacent to a
// member of the set.
func (g *Graph) IsDominatingSet(set map[int]bool) bool {
	return g.IsDominatingSetBits(BitsetFromSet(g.n, set))
}

// IsDominatingSetBits is IsDominatingSet over a Bitset membership.
func (g *Graph) IsDominatingSetBits(set *Bitset) bool {
	for u := 0; u < g.n; u++ {
		if set.Has(u) {
			continue
		}
		dominated := false
		for _, v := range g.Neighbors(u) {
			if set.Has(v) {
				dominated = true
				break
			}
		}
		if !dominated {
			return false
		}
	}
	return true
}

// IsCDS reports whether the set is a connected dominating set of g.
func (g *Graph) IsCDS(set map[int]bool) bool {
	return g.IsCDSBits(BitsetFromSet(g.n, set))
}

// IsCDSBits is IsCDS over a Bitset membership.
func (g *Graph) IsCDSBits(set *Bitset) bool {
	if !g.IsDominatingSetBits(set) {
		return false
	}
	s := getScratch()
	ok := g.InducedConnected(s, set)
	putScratch(s)
	return ok
}

// IsIndependentSet reports whether no two members of the set are adjacent.
// The clusterhead set of a valid clustering must satisfy this.
func (g *Graph) IsIndependentSet(set map[int]bool) bool {
	return g.IsIndependentSetBits(BitsetFromSet(g.n, set))
}

// IsIndependentSetBits is IsIndependentSet over a Bitset membership.
func (g *Graph) IsIndependentSetBits(set *Bitset) bool {
	ok := true
	set.ForEach(func(u int) {
		for _, v := range g.Neighbors(u) {
			if set.Has(v) {
				ok = false
				return
			}
		}
	})
	return ok
}

// Eccentricity returns the greatest hop distance from v to any reachable
// node, or −1 if some node is unreachable.
func (g *Graph) Eccentricity(v int) int {
	dist := g.BFS(v)
	ecc := 0
	for _, d := range dist {
		if d == -1 {
			return -1
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter returns the hop diameter of g, or −1 when g is disconnected.
func (g *Graph) Diameter() int {
	diam := 0
	for v := 0; v < g.n; v++ {
		e := g.Eccentricity(v)
		if e == -1 {
			return -1
		}
		if e > diam {
			diam = e
		}
	}
	return diam
}

// ShortestPath returns one shortest path from src to dst as a node sequence
// including both endpoints, or nil when dst is unreachable.
func (g *Graph) ShortestPath(src, dst int) []int {
	if src == dst {
		return []int{src}
	}
	prev := make([]int, g.n)
	for i := range prev {
		prev[i] = -1
	}
	prev[src] = src
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if prev[v] == -1 {
				prev[v] = u
				if v == dst {
					var path []int
					for w := dst; w != src; w = prev[w] {
						path = append(path, w)
					}
					path = append(path, src)
					for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
						path[i], path[j] = path[j], path[i]
					}
					return path
				}
				queue = append(queue, v)
			}
		}
	}
	return nil
}

// DOT renders g in Graphviz DOT format; highlight marks a set of nodes to
// fill (the backbone, in our figures). Deterministic output: nodes and edges
// appear in sorted order.
func (g *Graph) DOT(name string, highlight map[int]bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %s {\n", name)
	for u := 0; u < g.n; u++ {
		if highlight[u] {
			fmt.Fprintf(&b, "  %d [style=filled fillcolor=black fontcolor=white];\n", u)
		} else {
			fmt.Fprintf(&b, "  %d;\n", u)
		}
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "  %d -- %d;\n", e[0], e[1])
	}
	b.WriteString("}\n")
	return b.String()
}

// FromEdges builds a graph with n nodes and the given edge list in one
// batch: degrees are counted first, adjacency arrays are filled, and each
// list is sorted once — O(m·log(deg)) total instead of the O(m·deg)
// memmove cost of repeated sorted insertion. Self-loops and duplicate
// edges panic, as with AddEdge.
func FromEdges(n int, edges [][2]int) *Graph {
	g := New(n)
	deg := make([]int, n)
	for _, e := range edges {
		u, v := e[0], e[1]
		if u == v {
			panic(fmt.Sprintf("graph: self-loop at %d", u))
		}
		deg[u]++
		deg[v]++
	}
	// One backing array for all adjacency lists keeps the graph compact and
	// the build allocation count flat in n.
	backing := make([]int, 2*len(edges))
	offset := 0
	for u, d := range deg {
		g.adj[u] = backing[offset : offset : offset+d]
		offset += d
	}
	for _, e := range edges {
		g.adj[e[0]] = append(g.adj[e[0]], e[1])
		g.adj[e[1]] = append(g.adj[e[1]], e[0])
	}
	for u := range g.adj {
		sort.Ints(g.adj[u])
		for i := 1; i < len(g.adj[u]); i++ {
			if g.adj[u][i] == g.adj[u][i-1] {
				panic(fmt.Sprintf("graph: duplicate edge {%d,%d}", u, g.adj[u][i]))
			}
		}
	}
	g.edges = len(edges)
	return g
}

// FromAdjacency builds a graph directly from per-node neighbor lists,
// taking ownership of adj and its backing arrays. Each list is sorted in
// place; self-loops and duplicate neighbors panic. The lists must already
// be symmetric (v ∈ adj[u] ⇔ u ∈ adj[v]) — callers like the unit-disk
// builder produce them from a symmetric distance predicate, and the edge
// count is derived from the degree sum.
func FromAdjacency(n int, adj [][]int) *Graph {
	if len(adj) != n {
		panic(fmt.Sprintf("graph: adjacency for %d nodes, want %d", len(adj), n))
	}
	g := &Graph{}
	g.Renew(adj)
	return g
}

// Renew re-initializes g in place around per-node neighbor lists, taking
// ownership of adj and its backing arrays and applying the same in-place
// sort and validation as FromAdjacency. It lets a reusable topology
// workspace rebuild the graph every replicate without allocating.
func (g *Graph) Renew(adj [][]int) {
	n := len(adj)
	degSum := 0
	for u := range adj {
		l := adj[u]
		SortNeighbors(l)
		for i, v := range l {
			if v < 0 || v >= n {
				panic(fmt.Sprintf("graph: neighbor %d out of range [0,%d)", v, n))
			}
			if v == u {
				panic(fmt.Sprintf("graph: self-loop at %d", u))
			}
			if i > 0 && v == l[i-1] {
				panic(fmt.Sprintf("graph: duplicate edge {%d,%d}", u, v))
			}
		}
		degSum += len(l)
	}
	if degSum%2 != 0 {
		panic("graph: asymmetric adjacency lists")
	}
	g.adj = adj
	g.off, g.flat = nil, nil
	g.n = n
	g.edges = degSum / 2
}

// RenewSorted re-initializes g in place around adjacency lists the caller
// guarantees are already strictly ascending, symmetric, self-loop-free and
// in range — the invariant maintained by the incremental unit-disk edge
// updater. It skips the per-list sort and validation of FromAdjacency
// entirely, so an incremental mobility step costs O(changed edges), not
// O(n·deg). Callers that cannot prove the invariant use Renew instead; the
// equivalence tests in the topology package check both against the full
// rebuild.
func (g *Graph) RenewSorted(adj [][]int) {
	degSum := 0
	for u := range adj {
		degSum += len(adj[u])
	}
	g.adj = adj
	g.off, g.flat = nil, nil
	g.n = len(adj)
	g.edges = degSum / 2
}

// RenewCSR re-initializes g in place around a compressed-sparse-row
// adjacency the caller guarantees is well-formed: off has n+1 ascending
// offsets with off[0] == 0 and off[n] == len(flat), and each segment
// flat[off[u]:off[u+1]] is strictly ascending, symmetric, self-loop-free
// and in range. Like RenewSorted it performs no validation — it is the
// trusted zero-allocation handoff from the topology workspace, which
// builds the CSR in two counting passes and sorts each segment in place.
// The graph takes ownership of both slices.
func (g *Graph) RenewCSR(off, flat []int) {
	if len(off) == 0 {
		panic("graph: RenewCSR needs at least the terminating offset")
	}
	g.adj = nil
	g.off, g.flat = off, flat
	g.n = len(off) - 1
	g.edges = len(flat) / 2
}

// SortNeighbors sorts an adjacency list in place, with a straight
// insertion sort for the short lists typical of bounded-degree radio
// graphs (the generic sort machinery costs more than it saves below a few
// dozen elements).
func SortNeighbors(l []int) {
	if len(l) > 32 {
		sort.Ints(l)
		return
	}
	for i := 1; i < len(l); i++ {
		v := l[i]
		j := i - 1
		for j >= 0 && l[j] > v {
			l[j+1] = l[j]
			j--
		}
		l[j+1] = v
	}
}

// SetOf returns a membership map for the given node IDs.
func SetOf(ids ...int) map[int]bool {
	m := make(map[int]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}

// SetSize returns the number of true entries in a membership map.
func SetSize(set map[int]bool) int {
	n := 0
	for _, in := range set {
		if in {
			n++
		}
	}
	return n
}

// SortedMembers returns the true entries of a membership map in ascending
// order.
func SortedMembers(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for v, in := range set {
		if in {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}
