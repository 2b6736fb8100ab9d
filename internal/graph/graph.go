// Package graph provides the undirected-graph substrate for the MANET
// simulator: adjacency storage, traversals, connectivity queries, and
// verification predicates for dominating sets and connected dominating
// sets (CDS).
//
// Nodes are identified by dense integer IDs 0..n−1. In the MANET model the
// ID doubles as the node's unique address, and the lowest-ID clustering
// algorithm gives smaller IDs election priority.
package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Graph is an undirected simple graph over nodes 0..n−1 in
// compressed-sparse-row form: the sorted neighbors of u are the segment
// flat[off[u]:off[u+1]] of one flat array. The topology hot path fills
// both arrays in two counting passes with no per-node allocation;
// FromEdges and AddEdge build hand-made graphs in the same layout.
//
// Neighbors(u) is a zero-copy slice view of u's segment. The zero value is
// an empty graph with no nodes; use New to create a graph with a fixed
// node count.
type Graph struct {
	off   []int // n+1 ascending offsets, off[0] == 0, off[n] == len(flat)
	flat  []int
	n     int
	edges int
}

// New returns a graph with n isolated nodes.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Graph{off: make([]int, n+1), n: n}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.edges }

// AddEdge inserts the undirected edge {u, v}. Self-loops and duplicate
// edges are rejected with a panic: the unit-disk model never produces them,
// so their appearance indicates a bug in the caller. Each call shifts the
// flat array and the offsets after u, O(n + m): edge insertion builds
// hand-made and small virtual graphs, never a sampled network.
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	if g.HasEdge(u, v) {
		panic(fmt.Sprintf("graph: duplicate edge {%d,%d}", u, v))
	}
	if u > v {
		u, v = v, u
	}
	pu := g.off[u] + sort.SearchInts(g.Neighbors(u), v)
	pv := g.off[v] + sort.SearchInts(g.Neighbors(v), u)
	// pu <= pv, so inserting at pv first leaves pu in place.
	g.flat = slices.Insert(g.flat, pv, u)
	g.flat = slices.Insert(g.flat, pu, v)
	for w := u + 1; w <= v; w++ {
		g.off[w]++
	}
	for w := v + 1; w <= g.n; w++ {
		g.off[w] += 2
	}
	g.edges++
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
	return g.flat[g.off[u]:g.off[u+1]:g.off[u+1]]
}

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u int) int {
	return g.off[u+1] - g.off[u]
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

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	return &Graph{off: slices.Clone(g.off), flat: slices.Clone(g.flat), n: g.n, edges: g.edges}
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

// HopDist returns the hop distance from src to dst, −1 when dst is
// unreachable: BFS(src)[dst] without the n-sized distance slice. The
// search borrows a pooled traversal scratch and stops when it reaches
// dst, so a steady-state caller allocates nothing.
func (g *Graph) HopDist(src, dst int) int {
	if src == dst {
		return 0
	}
	s := getScratch()
	epoch := s.begin(g.n)
	s.visit(src, epoch)
	s.dist[src] = 0
	d := -1
search:
	for qi := 0; qi < len(s.queue); qi++ {
		u := s.queue[qi]
		for _, v := range g.Neighbors(u) {
			if v == dst {
				d = s.dist[u] + 1
				break search
			}
			if s.visit(v, epoch) {
				s.dist[v] = s.dist[u] + 1
			}
		}
	}
	putScratch(s)
	return d
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
	s := getScratch()
	defer putScratch(s)
	return g.eccentricity(s, v)
}

// eccentricity is Eccentricity over s; afterwards s.dist holds the hop
// distance from v of every node.
func (g *Graph) eccentricity(s *Scratch, v int) int {
	ecc, seen := 0, 0
	g.BFSWith(s, v, func(_, d int) { ecc, seen = d, seen+1 }) // BFS visits in distance order
	if seen < g.n {
		return -1
	}
	return ecc
}

// Diameter returns the hop diameter of g, or −1 when g is disconnected.
//
// It is exact but runs far fewer than n BFS passes: the BoundingDiameters
// algorithm of Takes & Kosters (2011). A BFS from v bounds the
// eccentricity of every node w by max(ecc(v)−d, d) ≤ ecc(w) ≤ ecc(v)+d,
// with d = d(v, w). The largest lower bound and the largest upper bound
// (or 2·ecc(v), whichever is smaller) bracket the diameter, and a node
// stops being a BFS candidate once its eccentricity is known or its
// bounds can move neither end of the bracket. Sources alternate between
// the candidate with the largest upper bound and the one with the
// smallest lower bound. All passes share one pooled traversal scratch.
func (g *Graph) Diameter() int {
	n := g.n
	if n == 0 {
		return 0
	}
	s := getScratch()
	defer putScratch(s)
	lo := make([]int32, n) // eccentricity bounds
	hi := make([]int32, n)
	cand := make([]int32, n)
	for v := range cand {
		hi[v] = math.MaxInt32
		cand[v] = int32(v)
	}
	dLo, dHi := int32(0), int32(math.MaxInt32)
	var doneHi int32 // the largest upper bound of the nodes no longer candidates
	for high := true; dLo < dHi && len(cand) > 0; high = !high {
		v := g.diameterSource(cand, lo, hi, high)
		e := g.eccentricity(s, v)
		if e < 0 {
			return -1
		}
		ecc := int32(e)
		dLo, dHi = max(dLo, ecc), min(dHi, 2*ecc)
		maxHi := doneHi
		for _, w := range cand {
			d := int32(s.dist[w])
			lo[w] = max(lo[w], d, ecc-d)
			hi[w] = min(hi[w], ecc+d)
			dLo, maxHi = max(dLo, lo[w]), max(maxHi, hi[w])
		}
		dHi = min(dHi, maxHi)
		keep := cand[:0]
		for _, w := range cand {
			if lo[w] == hi[w] || (hi[w] <= dLo && 2*lo[w] >= dHi) {
				doneHi = max(doneHi, hi[w])
				continue
			}
			keep = append(keep, w)
		}
		cand = keep
	}
	// Every node left the candidates with its upper bound at most dLo, or
	// the bracket closed: either way dLo is the diameter.
	return int(dLo)
}

// diameterSource picks Diameter's next BFS source among the candidates:
// the largest upper bound when high is set, else the smallest lower
// bound, ties going to the higher degree and then the lower ID.
func (g *Graph) diameterSource(cand, lo, hi []int32, high bool) int {
	best := int(cand[0])
	for _, w32 := range cand[1:] {
		w := int(w32)
		var better, tie bool
		if high {
			better, tie = hi[w] > hi[best], hi[w] == hi[best]
		} else {
			better, tie = lo[w] < lo[best], lo[w] == lo[best]
		}
		if better || (tie && g.Degree(w) > g.Degree(best)) {
			best = w
		}
	}
	return best
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
// batch: degrees are counted into the offsets, the flat array is filled
// with per-node cursors, and each segment is sorted once — O(m·log(deg))
// total instead of the O(n + m) shift of every AddEdge. Self-loops and
// duplicate edges panic, as with AddEdge.
func FromEdges(n int, edges [][2]int) *Graph {
	g := New(n)
	off := g.off
	for _, e := range edges {
		if e[0] == e[1] {
			panic(fmt.Sprintf("graph: self-loop at %d", e[0]))
		}
		off[e[0]+1]++
		off[e[1]+1]++
	}
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	g.flat = make([]int, off[n])
	cur := slices.Clone(off[:n])
	for _, e := range edges {
		u, v := e[0], e[1]
		g.flat[cur[u]], g.flat[cur[v]] = v, u
		cur[u]++
		cur[v]++
	}
	for u := 0; u < n; u++ {
		l := g.Neighbors(u)
		SortNeighbors(l)
		for i := 1; i < len(l); i++ {
			if l[i] == l[i-1] {
				panic(fmt.Sprintf("graph: duplicate edge {%d,%d}", u, l[i]))
			}
		}
	}
	g.edges = len(edges)
	return g
}

// RenewCSR re-initializes g in place around a compressed-sparse-row
// adjacency the caller guarantees is well-formed: off has n+1 ascending
// offsets with off[0] == 0 and off[n] == len(flat), and each segment
// flat[off[u]:off[u+1]] is strictly ascending, symmetric, self-loop-free
// and in range. It performs no validation — it is the trusted handoff
// from builders that guarantee that form: the topology workspace, which
// builds the CSR in two counting passes and sorts each segment in place
// without allocating, and filters of an existing graph's rows, such as
// the backbone repair's surviving graph. The graph takes ownership of
// both slices.
func (g *Graph) RenewCSR(off, flat []int) {
	if len(off) == 0 {
		panic("graph: RenewCSR needs at least the terminating offset")
	}
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
