// Package coverage computes clusterhead coverage sets, the paper's central
// data structure.
//
// A clusterhead u's coverage set C(u) = C²(u) ∪ C³(u) consists of the
// clusterheads u must connect to through selected gateways:
//
//   - C²(u): clusterheads exactly 2 hops from u (always included),
//   - C³(u): clusterheads 3 hops from u, where the two coverage-area
//     variants differ:
//
// With the 3-hop coverage set, C³(u) holds every clusterhead exactly 3 hops
// away. With the cheaper 2.5-hop coverage set, C³(u) only holds
// clusterheads w that have a *cluster member* within N²(u) — exactly the
// information the CH_HOP1/CH_HOP2 message exchange of the paper gathers:
// CH_HOP1(v) carries v's 1-hop neighboring clusterheads, and CH_HOP2(v)
// carries v's 2-hop clusterhead entries "w[r]" (w reachable via relay r,
// where — in the 2.5-hop variant — r is a member of w's cluster).
//
// Alongside the sets themselves the package records the connector
// bookkeeping the gateway selection needs: which neighbor v of u directly
// covers which 2-hop clusterheads (w ∈ CH_HOP1(v)) and which (v, r) pair
// reaches which 3-hop clusterhead (w[r] ∈ CH_HOP2(v)).
//
// Membership sets (C², C³) are graph.SparseSet values over the node-ID
// universe: coverage construction and the downstream greedy set-cover are
// the simulator's hottest kernels, and sorted-slice operations over sets
// of at most 48 clusterheads on a unit-disk graph are what keep them
// O(coverage size) instead of Θ(n) at 10k–100k nodes.
package coverage

import (
	"sort"

	"clustercast/internal/cluster"
	"clustercast/internal/des"
	"clustercast/internal/graph"
)

// Mode selects the coverage-area variant.
type Mode uint8

const (
	// Hop25 is the 2.5-hop coverage set: C³ restricted to clusterheads
	// with a member in N²(u). Cheaper to maintain; the cluster graph may be
	// genuinely directed.
	Hop25 Mode = iota
	// Hop3 is the full 3-hop coverage set: C³ holds every clusterhead at
	// distance exactly 3. The cluster graph is symmetric.
	Hop3
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Hop25:
		return "2.5-hop"
	case Hop3:
		return "3-hop"
	default:
		return "unknown"
	}
}

// Hop2Entry is one CH_HOP2 report line: clusterhead w reachable through
// relay r.
type Hop2Entry struct{ W, R int }

// Connector is the coverage contribution of one neighbor v of the head:
// the 2-hop clusterheads v is adjacent to (Direct, sorted ascending) and
// the 3-hop clusterheads v reaches through a relay (Indirect, sorted by
// clusterhead ID, each with the lowest-ID relay per the "first entry wins"
// rule of the CH_HOP2 construction).
type Connector struct {
	V        int
	Direct   []int
	Indirect []Hop2Entry
}

// Relay returns the relay reaching 3-hop clusterhead w through this
// connector, if any.
func (cn *Connector) Relay(w int) (int, bool) {
	i := sort.Search(len(cn.Indirect), func(i int) bool { return cn.Indirect[i].W >= w })
	if i < len(cn.Indirect) && cn.Indirect[i].W == w {
		return cn.Indirect[i].R, true
	}
	return 0, false
}

// Coverage is the coverage set of one clusterhead together with the
// connector bookkeeping used by gateway selection.
type Coverage struct {
	Head int
	Mode Mode

	// C2 and C3 are the 2-hop and 3-hop components of the coverage set, as
	// sparse sets over node IDs. They are disjoint: a clusterhead in both
	// is kept only in C2.
	C2 *graph.SparseSet
	C3 *graph.SparseSet

	// Conns lists, ascending by neighbor ID, the neighbors of the head
	// that contribute coverage, with what each covers. Plain sorted slices
	// instead of maps: gateway selection scans them in tight loops, and a
	// slice walk is both faster and deterministic.
	Conns []Connector

	// Construction backing, kept on the value so OfScratch can refill a
	// Coverage without allocating: the Conns slices above are views into
	// direct/indirect, addressed during assembly by the offset arrays.
	dirOff   []int
	indOff   []int
	direct   []int
	indirect []Hop2Entry
}

// Connector returns the connector of neighbor v, or nil when v
// contributes no coverage.
func (c *Coverage) Connector(v int) *Connector {
	i := sort.Search(len(c.Conns), func(i int) bool { return c.Conns[i].V >= v })
	if i < len(c.Conns) && c.Conns[i].V == v {
		return &c.Conns[i]
	}
	return nil
}

// Size returns |C(u)|.
func (c *Coverage) Size() int { return c.C2.Count() + c.C3.Count() }

// Builder precomputes, for a clustered network, the per-node neighborhood
// digests (the contents of the CH_HOP1 and CH_HOP2 messages) and serves
// coverage sets for any clusterhead in O(size of the answer).
type Builder struct {
	g    *graph.Graph
	cl   *cluster.Clustering
	mode Mode

	// ch1[v]: sorted clusterheads adjacent to v (the CH_HOP1 content for
	// non-clusterhead v; also defined for clusterheads, where it is empty
	// by the independent-set property). All slices share one backing array.
	ch1 [][]int
	// ch2[v]: for non-clusterhead v, the 2-hop clusterhead entries, sorted
	// by clusterhead ID (w -> lowest-ID relay r with v—r—w per the mode's
	// rule and w not adjacent to v).
	ch2 [][]Hop2Entry

	// asm is the builder-owned assembly scratch of Of. Workspaces
	// assemble through OfScratch with their own AsmScratch instead.
	asm AsmScratch

	// Digest state, reused across Reset calls so a builder owned by a
	// per-worker workspace re-digests without allocating: the CH_HOP1
	// backing and counts, the strip partitioner, the per-strip arenas and
	// scratch, and the int32 digest shadow.
	ch1backing []int
	cnt        []int
	sh         des.Shards
	shards     []buildShard
	d32        digest32
}

// AsmScratch is the epoch-stamped mark array one coverage assembly uses:
// mark[w] == e marks membership of w for the current stamp e, so clearing
// between assemblies is a counter bump instead of an O(n/64) bitset clear —
// the difference between an O(m) and an O(n²) digest pass at 10k+ nodes.
//
// The builder embeds one for Of; every head strip of a workspace owns one
// (see OfScratch).
type AsmScratch struct {
	mark  []uint32
	epoch uint32
}

// ensure sizes the mark array for an n-node universe.
func (s *AsmScratch) ensure(n int) {
	if cap(s.mark) < n {
		s.mark = make([]uint32, n)
		s.epoch = 0
	}
	s.mark = s.mark[:n]
}

// stamps reserves k fresh epoch values and returns the first; on wrap the
// stale stamps are flushed over the full mark capacity first.
func (s *AsmScratch) stamps(k uint32) uint32 {
	if s.epoch > ^uint32(0)-k {
		full := s.mark[:cap(s.mark)]
		for i := range full {
			full[i] = 0
		}
		s.epoch = 0
	}
	base := s.epoch + 1
	s.epoch += k
	return base
}

// NewBuilder digests the clustered network once. The clustering must be
// valid for g.
func NewBuilder(g *graph.Graph, cl *cluster.Clustering, mode Mode) *Builder {
	b := &Builder{}
	b.Reset(g, cl, mode)
	return b
}

// N returns the number of nodes of the underlying graph (the bitset
// universe of every coverage set the builder serves).
func (b *Builder) N() int { return b.g.N() }

// Mode returns the coverage-area variant of the builder.
func (b *Builder) Mode() Mode { return b.mode }

// CH1 returns the sorted clusterheads adjacent to v (CH_HOP1 content).
// The returned slice is owned by the builder.
func (b *Builder) CH1(v int) []int { return b.ch1[v] }

// CH2 returns v's CH_HOP2 content as a clusterhead ↦ relay map. It
// materializes a fresh map per call and exists for reporting and tests.
func (b *Builder) CH2(v int) map[int]int {
	m := make(map[int]int, len(b.ch2[v]))
	for _, e := range b.ch2[v] {
		m[e.W] = e.R
	}
	return m
}

// Of computes the coverage set of clusterhead u into a fresh Coverage. It
// panics when u is not a clusterhead of the clustering.
func (b *Builder) Of(u int) *Coverage {
	return b.OfScratch(u, &Coverage{}, &b.asm)
}

// OfScratch computes the coverage set of clusterhead u into c, reusing
// c's bitsets and backing arrays, with caller-provided assembly scratch.
// It panics when u is not a clusterhead of the clustering. After Reset the
// builder's digests are read-only, so OfScratch is safe to call from
// multiple goroutines concurrently as long as each caller passes its own
// c and scr — the per-clusterhead loops of the workspaces rely on this.
func (b *Builder) OfScratch(u int, c *Coverage, scr *AsmScratch) *Coverage {
	if !b.cl.IsHead(u) {
		panic("coverage: Of called on a non-clusterhead")
	}
	n := b.g.N()
	scr.ensure(n)
	c.Head, c.Mode = u, b.mode
	if c.C2 == nil {
		c.C2, c.C3 = graph.NewSparseSet(n), graph.NewSparseSet(n)
	} else {
		c.C2.Reset(n)
		c.C3.Reset(n)
	}
	c.Conns = c.Conns[:0]
	nbrs := b.g.Neighbors(u)
	// Membership during assembly is tracked in the epoch-stamped mark array
	// (ep2 = "in C²", ep3 = "already in C³"), so the C³ pass filters against
	// C² — and both passes deduplicate their set inserts — with O(1) array
	// probes instead of per-entry set lookups.
	ep2 := scr.stamps(2)
	ep3 := ep2 + 1
	mark := scr.mark
	// C² first (from neighbors' CH_HOP1), because the C³ pass must filter
	// against the complete C². Per-neighbor lists are packed into shared
	// backing arrays addressed by offsets — no per-neighbor allocations.
	if cap(c.dirOff) < len(nbrs)+1 {
		c.dirOff = make([]int, len(nbrs)+1)
		c.indOff = make([]int, len(nbrs)+1)
	}
	dirOff := c.dirOff[:len(nbrs)+1]
	dirOff[0] = 0
	direct := c.direct[:0]
	for i, v := range nbrs {
		for _, w := range b.ch1[v] {
			if w == u {
				continue
			}
			if mark[w] != ep2 {
				mark[w] = ep2
				c.C2.Add(w)
			}
			direct = append(direct, w)
		}
		dirOff[i+1] = len(direct)
	}
	// C³: from neighbors' CH_HOP2, removing C² duplicates.
	indOff := c.indOff[:len(nbrs)+1]
	indOff[0] = 0
	indirect := c.indirect[:0]
	for i, v := range nbrs {
		for _, e := range b.ch2[v] {
			if e.W == u || mark[e.W] == ep2 {
				continue
			}
			if mark[e.W] != ep3 {
				mark[e.W] = ep3
				c.C3.Add(e.W)
			}
			indirect = append(indirect, e)
		}
		indOff[i+1] = len(indirect)
	}
	c.direct, c.indirect = direct, indirect
	for i, v := range nbrs {
		d := direct[dirOff[i]:dirOff[i+1]:dirOff[i+1]]
		in := indirect[indOff[i]:indOff[i+1]:indOff[i+1]]
		if len(d) == 0 && len(in) == 0 {
			continue
		}
		c.Conns = append(c.Conns, Connector{V: v, Direct: d, Indirect: in})
	}
	return c
}

// ClusterGraph builds the paper's cluster graph G′: one vertex per cluster
// (indexed 0..k−1 in ascending head order), and a directed edge (v, w)
// whenever clusterhead w belongs to v's coverage set. The returned index
// maps head ID to vertex index.
func ClusterGraph(b *Builder) (*graph.Digraph, map[int]int) {
	heads := b.cl.Heads
	index := make(map[int]int, len(heads))
	for i, h := range heads {
		index[h] = i
	}
	d := graph.NewDigraph(len(heads))
	for _, h := range heads {
		cov := b.Of(h)
		cov.C2.ForEach(func(w int) { d.AddEdge(index[h], index[w]) })
		cov.C3.ForEach(func(w int) { d.AddEdge(index[h], index[w]) })
	}
	return d, index
}
