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
// flat[off[u]:off[u+1]] of one flat array. Offsets and neighbor IDs are
// four bytes each, so a graph holds at most 2³¹−1 adjacency entries
// (MaxEntries). The topology hot path and FromEdges fill both arrays with
// one sort-free assembly (ScatterRows, TransposeRows) and no per-node
// allocation; AddEdge builds small hand-made graphs in the same layout.
//
// Neighbors(u) is a zero-copy slice view of u's segment. The zero value is
// an empty graph with no nodes; use New to create a graph with a fixed
// node count.
type Graph struct {
	off   []int32 // n+1 ascending offsets, off[0] == 0, off[n] == len(flat)
	flat  []int32
	n     int
	edges int
}

// MaxEntries is the most adjacency entries (twice the edges) a Graph
// holds: its offsets and the assembly's cursors are int32.
const MaxEntries = math.MaxInt32

// New returns a graph with n isolated nodes.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Graph{off: make([]int32, n+1), n: n}
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
	iu, _ := slices.BinarySearch(g.Neighbors(u), int32(v))
	iv, _ := slices.BinarySearch(g.Neighbors(v), int32(u))
	pu, pv := int(g.off[u])+iu, int(g.off[v])+iv
	// pu <= pv, so inserting at pv first leaves pu in place.
	g.flat = slices.Insert(g.flat, pv, int32(u))
	g.flat = slices.Insert(g.flat, pu, int32(v))
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
	_, ok := slices.BinarySearch(g.Neighbors(u), int32(v))
	return ok
}

// Neighbors returns the sorted adjacency list of u. The returned slice is
// owned by the graph and must not be modified.
func (g *Graph) Neighbors(u int) []int32 {
	return g.flat[g.off[u]:g.off[u+1]:g.off[u+1]]
}

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u int) int {
	return int(g.off[u+1] - g.off[u])
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
			if u < int(v) {
				out = append(out, [2]int{u, int(v)})
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
				queue = append(queue, int(v))
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
			if int(v) == dst {
				d = s.dist[u] + 1
				break search
			}
			if s.visit(int(v), epoch) {
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
					queue = append(queue, int(v))
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// IsDominatingSet reports whether every node is in the set or adjacent to a
// member of the set.
func (g *Graph) IsDominatingSet(set *Bitset) bool {
	for u := 0; u < g.n; u++ {
		if set.Has(u) {
			continue
		}
		dominated := false
		for _, v := range g.Neighbors(u) {
			if set.Has(int(v)) {
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

// IsCDSBits reports whether the set is a connected dominating set of g.
func (g *Graph) IsCDSBits(set *Bitset) bool {
	if !g.IsDominatingSet(set) {
		return false
	}
	s := getScratch()
	ok := g.InducedConnected(s, set)
	putScratch(s)
	return ok
}

// IsCDS is IsCDSBits over a membership map. The construction layers hand
// over bitsets; only pipebench, which checks the wire protocol's
// map-valued sim.Outcome.Backbone, and tests over the broadcast results'
// maps call it.
func (g *Graph) IsCDS(set map[int]bool) bool {
	b := NewBitset(g.n)
	for v, in := range set {
		if in {
			b.Add(v)
		}
	}
	return g.IsCDSBits(b)
}

// IsIndependentSet reports whether no two members of the set are adjacent.
// The clusterhead set of a valid clustering must satisfy this.
func (g *Graph) IsIndependentSet(set *Bitset) bool {
	ok := true
	set.ForEach(func(u int) {
		for _, v := range g.Neighbors(u) {
			if set.Has(int(v)) {
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
func (g *Graph) DOT(name string, highlight *Bitset) string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %s {\n", name)
	for u := 0; u < g.n; u++ {
		if highlight.Has(u) {
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
// batch, through the assembly the topology build uses (ScatterRows, then
// TransposeRows): O(n + m) with no comparison of neighbors, instead of
// the O(n + m) shift of every AddEdge. Self-loops and duplicate edges
// panic, as with AddEdge.
func FromEdges(n int, edges [][2]int) *Graph {
	if 2*len(edges) > MaxEntries {
		panic(fmt.Sprintf("graph: %d edges exceed the %d adjacency entries a graph holds", len(edges), MaxEntries))
	}
	g := New(n)
	off, cur := g.off, make([]int32, n)
	packed := make([]uint64, len(edges))
	for i, e := range edges {
		if e[0] == e[1] {
			panic(fmt.Sprintf("graph: self-loop at %d", e[0]))
		}
		cur[e[0]]++
		cur[e[1]]++
		packed[i] = uint64(e[0])<<32 | uint64(e[1])
	}
	for u := 0; u < n; u++ {
		off[u+1] = off[u] + cur[u]
		cur[u] = off[u]
	}
	rows := make([]int32, off[n])
	g.flat = make([]int32, off[n])
	ScatterRows(rows, cur, packed)
	TransposeRows(g.flat, rows, off, cur, 0, n)
	// A repeated edge comes out as two equal neighbors side by side.
	for u := 0; u < n; u++ {
		l := g.Neighbors(u)
		for i := 1; i < len(l); i++ {
			if l[i] == l[i-1] {
				panic(fmt.Sprintf("graph: duplicate edge {%d,%d}", u, l[i]))
			}
		}
	}
	g.edges = len(edges)
	return g
}

// ScatterRows is the first of two linear passes that assemble ascending
// CSR rows without comparing entries: a counting sort of the adjacency
// entries by one end, then a stable one by the other. For every packed
// edge u<<32 | v it writes v into u's row and u into v's row of the int32
// CSR rows, at the cursors cur[u] and cur[v], and advances them. Parts of
// an edge set whose cursors start where the earlier parts' entries of
// each row end fill disjoint slots, so they may scatter concurrently.
func ScatterRows(rows, cur []int32, edges []uint64) {
	for _, e := range edges {
		u, v := e>>32, uint32(e)
		rows[cur[u]] = int32(v)
		cur[u]++
		rows[cur[v]] = int32(u)
		cur[v]++
	}
}

// TransposeRows is the second pass. It sets the cursors of the rows in
// [lo, hi) to their offsets off, visits every source u in ascending order
// and appends u to the row of flat of each neighbor in [lo, hi) that u's
// row of rows names, so those rows come out strictly ascending. Calls
// over disjoint row ranges write disjoint memory and may run concurrently.
// The int32 entries, offsets and cursors cap nodes and adjacency entries
// at 2³¹−1 (MaxEntries); callers check the count before they assemble.
func TransposeRows(flat, rows, off, cur []int32, lo, hi int) {
	copy(cur[lo:hi], off[lo:hi])
	span := uint(hi - lo)
	for u := 0; u+1 < len(off); u++ {
		for _, w := range rows[off[u]:off[u+1]] {
			if uint(int(w)-lo) < span {
				flat[cur[w]] = int32(u)
				cur[w]++
			}
		}
	}
}

// RenewCSR re-initializes g in place around a compressed-sparse-row
// adjacency the caller guarantees is well-formed: off has n+1 ascending
// offsets with off[0] == 0 and off[n] == len(flat), and each segment
// flat[off[u]:off[u+1]] is strictly ascending, symmetric, self-loop-free
// and in range. It performs no validation — it is the trusted handoff
// from builders that guarantee that form: the topology workspace, which
// assembles its rows with ScatterRows and TransposeRows over reused
// buffers, and filters of an existing graph's rows, such as the backbone
// repair's surviving graph. The graph takes ownership of both slices.
func (g *Graph) RenewCSR(off, flat []int32) {
	if len(off) == 0 {
		panic("graph: RenewCSR needs at least the terminating offset")
	}
	g.off, g.flat = off, flat
	g.n = len(off) - 1
	g.edges = len(flat) / 2
}
