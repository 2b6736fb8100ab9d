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
// Every part of a coverage set (C², C³, the connectors and their runs) is
// a flat sorted run of four-byte IDs: coverage construction and the
// downstream greedy set-cover are the simulator's hottest kernels, and
// sorted runs over at most 48 clusterheads on a unit-disk graph keep them
// O(coverage size) instead of Θ(n) at 10k–100k nodes. The same layout
// serves a scratch coverage refilled per head and a store that keeps
// every head's coverage in shared arenas (the dynamic backbone's).
package coverage

import (
	"slices"
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

// Hop2Entry is one CH_HOP2 report line: clusterhead W reachable through
// relay R. The digest's CH_HOP2 lists and every coverage's indirect runs
// hold it in eight bytes.
type Hop2Entry struct{ W, R int32 }

// Connector is the coverage contribution of one neighbor V of the head:
// two runs of the coverage's flat lists, each ending where the connector
// says and starting where the previous connector's ends (at 0 for the
// first). Its Direct run holds the 2-hop clusterheads V is adjacent to,
// ascending; its Indirect run holds the 3-hop clusterheads V reaches
// through a relay, sorted by clusterhead ID, each with the lowest-ID relay
// per the "first entry wins" rule of the CH_HOP2 construction.
type Connector struct {
	V      int32
	DirEnd int32 // end of V's run in Coverage.Direct
	IndEnd int32 // end of V's run in Coverage.Indirect
}

// Coverage is the coverage set of one clusterhead together with the
// connector bookkeeping used by gateway selection. Every list is a flat
// run of four-byte IDs, so a coverage is five slice headers over storage
// that a caller can carve from shared arenas (see OfScratch).
type Coverage struct {
	Head int
	Mode Mode
	// N is the size of the node-ID universe 0..N−1 the IDs are drawn from.
	N int

	// C2 and C3 are the 2-hop and 3-hop components of the coverage set,
	// ascending. They are disjoint: a clusterhead in both is kept only in
	// C2.
	C2 []int32
	C3 []int32

	// Conns lists, ascending by neighbor ID, the neighbors of the head
	// that contribute coverage; Direct and Indirect hold their runs back
	// to back, in the same order. Flat sorted slices instead of maps:
	// gateway selection scans them in tight loops, and a slice walk is
	// both faster and deterministic.
	Conns    []Connector
	Direct   []int32
	Indirect []Hop2Entry
}

// Runs returns connector i's runs: the 2-hop clusterheads its neighbor
// covers directly and the (3-hop clusterhead, relay) entries it covers
// indirectly.
func (c *Coverage) Runs(i int) (direct []int32, indirect []Hop2Entry) {
	var d0, i0 int32
	if i > 0 {
		d0, i0 = c.Conns[i-1].DirEnd, c.Conns[i-1].IndEnd
	}
	return c.Direct[d0:c.Conns[i].DirEnd], c.Indirect[i0:c.Conns[i].IndEnd]
}

// Relay returns the relay through which connector i reaches 3-hop
// clusterhead w, if any.
func (c *Coverage) Relay(i, w int) (int, bool) {
	_, ind := c.Runs(i)
	j := sort.Search(len(ind), func(j int) bool { return int(ind[j].W) >= w })
	if j < len(ind) && int(ind[j].W) == w {
		return int(ind[j].R), true
	}
	return 0, false
}

// Size returns |C(u)|.
func (c *Coverage) Size() int { return len(c.C2) + len(c.C3) }

// Builder precomputes, for a clustered network, the per-node neighborhood
// digests (the contents of the CH_HOP1 and CH_HOP2 messages) and serves
// coverage sets for any clusterhead in O(size of the answer).
//
// The digests are flat: no per-node slice is kept. Every node's CH_HOP1
// report is a run of one int32 list, found through int32 offsets, and
// every node's CH_HOP2 report a run of its digest strip's entry list,
// found through int32 offsets into the strips' entries taken in order.
type Builder struct {
	g    *graph.Graph
	cl   *cluster.Clustering
	mode Mode

	// ch1 holds the CH_HOP1 reports back to back: the clusterheads
	// adjacent to v, ascending, are ch1[d32.off[v]:d32.off[v+1]] (empty
	// for a clusterhead, by the independent-set property).
	ch1 []int32
	// h2off bounds the CH_HOP2 reports: for non-clusterhead v, its 2-hop
	// clusterhead entries, sorted by clusterhead ID (w -> lowest-ID relay
	// r with v—r—w per the mode's rule and w not adjacent to v), are
	// entries [h2off[v], h2off[v+1]) of the strips' lists taken in strip
	// order (see hop2).
	h2off []int32

	// asm is the builder-owned assembly scratch of Of. Workspaces
	// assemble through OfScratch with their own AsmScratch instead.
	asm AsmScratch

	// Digest state, reused across Reset calls so a builder owned by a
	// per-worker workspace re-digests without allocating: the strip
	// partitioner, the per-strip entry lists and scratch, and the CH_HOP1
	// offsets and dense indices.
	sh     des.Shards
	shards []buildShard
	d32    digest32
}

// AsmScratch is the scratch one coverage assembly uses, chiefly an
// epoch-stamped mark array: mark[w] == e marks membership of w for the
// current stamp e, so clearing between assemblies is a counter bump
// instead of an O(n/64) bitset clear — the difference between an O(m) and
// an O(n²) digest pass at 10k+ nodes.
//
// The builder embeds one for Of; every head strip of a workspace owns one
// (see OfScratch).
type AsmScratch struct {
	mark  []uint32
	epoch uint32

	// Per neighbor of the head in progress: the end of its Direct run and
	// where its CH_HOP1 and CH_HOP2 runs lie.
	ends []int32
	at   []runs
}

// runs locates one node's reports: its CH_HOP1 run is [h1, e1) of the
// builder's ch1 list, and its CH_HOP2 run entries [h2, e2) of the strips'
// lists taken in order.
type runs struct{ h1, e1, h2, e2 int32 }

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
func (b *Builder) CH1(v int) []int32 {
	o, e := b.d32.off[v], b.d32.off[v+1]
	return b.ch1[o:e:e]
}

// CH2Count returns the number of entries of v's CH_HOP2 report.
func (b *Builder) CH2Count(v int) int { return int(b.h2off[v+1] - b.h2off[v]) }

// CH2 returns v's CH_HOP2 content as a clusterhead ↦ relay map. It
// materializes a fresh map per call and exists for reporting and tests.
func (b *Builder) CH2(v int) map[int]int {
	h2 := b.hop2(v)
	m := make(map[int]int, len(h2))
	for _, e := range h2 {
		m[int(e.W)] = int(e.R)
	}
	return m
}

// hop2 returns v's CH_HOP2 entries, which lie in the list of the digest
// strip whose node range holds v.
func (b *Builder) hop2(v int) []Hop2Entry {
	s := 0
	for v >= b.shards[s].hi {
		s++
	}
	sd := &b.shards[s]
	o, e := b.h2off[v]-sd.base, b.h2off[v+1]-sd.base
	return sd.h2[o:e:e]
}

// Of computes the coverage set of clusterhead u into a fresh Coverage. It
// panics when u is not a clusterhead of the clustering.
func (b *Builder) Of(u int) *Coverage {
	return b.OfScratch(u, &Coverage{}, &b.asm)
}

// OfScratch computes the coverage set of clusterhead u into c, appending
// to c's lists from length zero, with caller-provided assembly scratch.
// The lists are reused, so a loop that refills one Coverage allocates
// only while they grow, and a caller that carves them from shared arenas
// with room for what this call writes has the coverage assembled in
// place. It panics when u is not a clusterhead of the
// clustering. After Reset the builder's digests are read-only, so
// OfScratch is safe to call from multiple goroutines concurrently as long
// as each caller passes its own c and scr — the per-clusterhead loops of
// the workspaces rely on this.
func (b *Builder) OfScratch(u int, c *Coverage, scr *AsmScratch) *Coverage {
	if !b.cl.IsHead(u) {
		panic("coverage: Of called on a non-clusterhead")
	}
	n := b.g.N()
	scr.ensure(n)
	c.Head, c.Mode, c.N = u, b.mode, n
	nbrs := b.g.Neighbors(u)
	// Membership during assembly is tracked in the epoch-stamped mark array
	// (ep2 = "in C²", ep3 = "already in C³"), so the C³ pass filters against
	// C² — and both passes deduplicate their members — with O(1) array
	// probes.
	ep2 := scr.stamps(2)
	ep3 := ep2 + 1
	mark := scr.mark
	// The neighbors' digest offsets are gathered first, in a loop whose
	// loads carry no dependencies, so their cache misses overlap instead
	// of stalling the passes below one neighbor at a time.
	ends := slices.Grow(scr.ends[:0], len(nbrs))[:len(nbrs)]
	at := slices.Grow(scr.at[:0], len(nbrs))[:len(nbrs)]
	scr.ends, scr.at = ends, at
	off, h2off := b.d32.off, b.h2off
	for i, v := range nbrs {
		at[i] = runs{off[v], off[v+1], h2off[v], h2off[v+1]}
	}
	// C² first (from neighbors' CH_HOP1), because the C³ pass must filter
	// against the complete C². Each neighbor's CH_HOP1 run is ascending,
	// and so is its Direct run.
	u32 := int32(u)
	c2, direct := c.C2[:0], c.Direct[:0]
	for i := range nbrs {
		for _, w := range b.ch1[at[i].h1:at[i].e1] {
			if w == u32 {
				continue
			}
			if mark[w] != ep2 {
				mark[w] = ep2
				c2 = append(c2, w)
			}
			direct = append(direct, w)
		}
		ends[i] = int32(len(direct))
	}
	sortIDs(c2)
	// C³: from neighbors' CH_HOP2, removing C² duplicates. A neighbor with
	// an empty run in both lists contributes no connector. The neighbors
	// ascend, so the digest strip that holds their runs only moves on.
	c3, indirect, conns := c.C3[:0], c.Indirect[:0], c.Conns[:0]
	var d0 int32
	s := 0
	for i, v := range nbrs {
		for int(v) >= b.shards[s].hi {
			s++
		}
		sd := &b.shards[s]
		i0 := len(indirect)
		for _, e := range sd.h2[at[i].h2-sd.base : at[i].e2-sd.base] {
			if e.W == u32 || mark[e.W] == ep2 {
				continue
			}
			if mark[e.W] != ep3 {
				mark[e.W] = ep3
				c3 = append(c3, e.W)
			}
			indirect = append(indirect, e)
		}
		if ends[i] > d0 || len(indirect) > i0 {
			conns = append(conns, Connector{V: v, DirEnd: ends[i], IndEnd: int32(len(indirect))})
		}
		d0 = ends[i]
	}
	sortIDs(c3)
	c.C2, c.C3, c.Conns, c.Direct, c.Indirect = c2, c3, conns, direct, indirect
	return c
}

// sortIDs sorts a member list of at most a few dozen clusterheads with an
// insertion sort.
func sortIDs(ids []int32) {
	for i := 1; i < len(ids); i++ {
		w := ids[i]
		j := i - 1
		for j >= 0 && ids[j] > w {
			ids[j+1] = ids[j]
			j--
		}
		ids[j+1] = w
	}
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
		for _, w := range cov.C2 {
			d.AddEdge(index[h], index[int(w)])
		}
		for _, w := range cov.C3 {
			d.AddEdge(index[h], index[int(w)])
		}
	}
	return d, index
}
