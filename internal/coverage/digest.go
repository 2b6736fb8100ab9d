package coverage

import (
	"math"
	"slices"

	"clustercast/internal/cluster"
	"clustercast/internal/graph"
)

// buildShard is the private state of one digest strip: the CH_HOP2
// entries of its nodes, back to back in node order in a list only it
// appends to, and its mark and gather scratch. The builder publishes
// offsets into the lists, never slices of them, so a list may move when it
// grows; lists are reused across calls. hasm is the strip's mark scratch
// over the dense head universe (see digest32).
type buildShard struct {
	h2   []Hop2Entry
	base int32 // position of h2[0] among every node's CH_HOP2 entries
	hi   int   // end of the strip's node range
	hasm AsmScratch
	obuf []int32 // per-node probe gather buffers (one slot per neighbor)
	ebuf []int32
}

// digest32 holds the CH_HOP1 offsets, the dense-index copy of the CH_HOP1
// entries and the cluster assignment in dense indices. Clusterheads are
// renumbered into dense indices 0..|heads|−1 (ascending, so dense order
// equals ID order): the CH_HOP2 pass performs ~2m random probes, and in
// dense-index space its mark array is |heads|-sized (~40 KB at n=100k,
// L1-resident) instead of n-sized, while the per-relay tables shrink to
// one int32 load each.
type digest32 struct {
	code  []int32 // code[v]: dense index of head[v]
	heads []int32 // cl.Heads as int32 (dense index -> head ID)
	// off[v], off[v+1] bound v's CH_HOP1 run in Builder.ch1 and in dat.
	// Every CH_HOP1 entry is an adjacency entry of the graph, so the
	// total never exceeds graph.MaxEntries and int32 offsets address it.
	off []int32
	dat []int32 // CH_HOP1 entries as dense head indices
}

// Reset re-digests the builder for a new clustered network on the
// caller's goroutine, reusing every internal buffer. All slices and
// coverage sets previously served by the builder are invalidated. It is
// ResetParallel with one strip.
func (b *Builder) Reset(g *graph.Graph, cl *cluster.Clustering, mode Mode) {
	b.ResetParallel(g, cl, mode, 1)
}

// ResetParallel re-digests the builder with the per-node work cut into
// contiguous ID strips, one per worker (a single strip, on the caller's
// goroutine, when workers ≤ 1). Every strip writes only its own nodes'
// digests, so the published digests are bit-identical for any worker
// count; the digest tests and the fuzz target pin them to the
// sort-then-dedupe reference digest.
//
// The CH_HOP2 pass (hop2Strip) deduplicates candidates before it sorts
// them, and all its random probes go through the dense-index int32 copy
// of CH_HOP1 (digest32).
func (b *Builder) ResetParallel(g *graph.Graph, cl *cluster.Clustering, mode Mode, workers int) {
	n, nh := g.N(), len(cl.Heads)
	b.g, b.cl, b.mode = g, cl, mode
	b.sh.ResetRange(n, workers)
	k := b.sh.K()
	for len(b.shards) < k {
		b.shards = append(b.shards, buildShard{})
	}
	for s := 0; s < k; s++ {
		_, b.shards[s].hi = b.sh.Range(s)
	}
	d := &b.d32
	d.code, d.heads = resize(d.code, n), resize(d.heads, nh)
	// countStrip counts v's clusterhead neighbors into off[v+2], so after
	// the prefix sum off[v+1] is v's first slot and serves as its fill
	// cursor; once fillStrip has advanced every cursor, off[v] is v's
	// first slot and off[v+1] its end.
	d.off = resize(d.off, n+2)
	d.off[0], d.off[1] = 0, 0
	b.h2off = resize(b.h2off, n+1)
	for i, h := range cl.Heads {
		d.code[h] = int32(i)
		d.heads[i] = int32(h)
	}

	b.strips(workers, (*Builder).countStrip)
	for v := 2; v < len(d.off); v++ {
		d.off[v] += d.off[v-1]
	}
	total := d.off[n+1]
	b.ch1, d.dat = resize(b.ch1, int(total)), resize(d.dat, int(total))
	b.strips(workers, (*Builder).fillStrip)

	b.strips(workers, (*Builder).hop2Strip)
	// Each strip wrote its nodes' CH_HOP2 ends relative to its own list;
	// rebase them onto the position of the list's first entry among all
	// strips' entries. A 2.5-hop report has one relay per entry, so it
	// has at most deg(v) entries and the total stays within
	// graph.MaxEntries; a 3-hop relay can report up to five clusterheads
	// on a unit disk graph, so only there can the total pass int32.
	base := 0
	for s := 0; s < k; s++ {
		sd := &b.shards[s]
		sd.base = int32(base)
		if base += len(sd.h2); base > math.MaxInt32 {
			panic("coverage: CH_HOP2 digest exceeds 2^31 entries; int32 offsets cannot address it")
		}
		if s > 0 {
			lo, hi := b.sh.Range(s)
			for i := lo + 1; i <= hi; i++ {
				b.h2off[i] += sd.base
			}
		}
	}
	b.h2off[0] = 0
}

// strips runs one digest pass over every strip: directly when there is a
// single strip, so the one-strip digest builds no closure, and otherwise
// on up to workers goroutines.
func (b *Builder) strips(workers int, pass func(b *Builder, s int)) {
	if b.sh.K() == 1 {
		pass(b, 0)
		return
	}
	b.sh.Each(workers, func(s int) { pass(b, s) })
}

// countStrip is the CH_HOP1 count pass over strip s. v's CH_HOP1 report
// is exactly the head-neighbors of v, so the pass iterates the heads and
// counts each head at its neighbors — only edges incident to a clusterhead
// are touched, a ~(k/n)·2m fraction of the graph. Each head's adjacency
// list is ascending, so the strip reads only its [lo, hi) segment and
// every count has a single writer. The strip also renumbers its members'
// cluster assignment into dense head indices, reading the heads' own
// entries, which were set before the strips started and which no strip
// writes.
func (b *Builder) countStrip(s int) {
	lo, hi := b.sh.Range(s)
	g, head, cnt, code := b.g, b.cl.Head, b.d32.off[2:], b.d32.code
	for v := lo; v < hi; v++ {
		cnt[v] = 0
		if h := head[v]; h != v {
			code[v] = code[h]
		}
	}
	for _, h := range b.cl.Heads {
		nb := g.Neighbors(h)
		for _, v := range nb[segment(nb, lo):] {
			if int(v) >= hi {
				break
			}
			cnt[v]++
		}
	}
}

// segment returns the index of the first entry ≥ lo of the ascending
// adjacency list nb: where a strip starting at lo begins reading it.
func segment(nb []int32, lo int) int {
	if lo == 0 {
		return 0
	}
	i, _ := slices.BinarySearch(nb, int32(lo))
	return i
}

// fillStrip is the CH_HOP1 fill pass over strip s: a cursor fill, heads
// ascending, so each node's run comes out sorted and duplicate-free. The
// dense-index copy is filled through the same cursors.
func (b *Builder) fillStrip(s int) {
	lo, hi := b.sh.Range(s)
	g, cur, ch1, dat := b.g, b.d32.off[1:], b.ch1, b.d32.dat
	for i, h := range b.d32.heads {
		nb := g.Neighbors(int(h))
		for _, v := range nb[segment(nb, lo):] {
			if int(v) >= hi {
				break
			}
			c := cur[v]
			ch1[c] = h
			dat[c] = int32(i)
			cur[v] = c + 1
		}
	}
}

// hop2Strip is the CH_HOP2 pass over strip s: stream candidates in
// ascending relay order through two stamps — epA marks v's adjacent heads
// (never reported), epB marks clusterheads already sighted for v (the
// first sighting has the lowest relay, the "first entry wins" rule) — then
// insertion-sort the deduplicated survivors at the end of the strip's
// list, where v's run ends and v+1's starts. The mark array lives in
// dense-index space, and dense order equals ID order, so sorting by W is
// unchanged.
//
// Each node's relay probes are split into a branch-free gather loop
// (every neighbor's table entry into a local buffer) followed by the
// consume loop. The gather's loads carry no cross-iteration dependencies,
// so the out-of-order core keeps many cache misses in flight at once
// instead of paying them one by one interleaved with the consume branches
// — the probes are the digest's whole cost.
func (b *Builder) hop2Strip(s int) {
	lo, hi := b.sh.Range(s)
	sd := &b.shards[s]
	g, head, h2off, hop25 := b.g, b.cl.Head, b.h2off, b.mode == Hop25
	code, heads32, ch1off, dat := b.d32.code, b.d32.heads, b.d32.off, b.d32.dat
	sd.hasm.ensure(len(heads32))
	mark := sd.hasm.mark
	h2 := sd.h2[:0]
	if cap(h2) < 2*(hi-lo) {
		h2 = make([]Hop2Entry, 0, 2*(hi-lo))
	}
	for v := lo; v < hi; v++ {
		if head[v] == v {
			h2off[v+1] = int32(len(h2))
			continue
		}
		nb := g.Neighbors(v)
		if len(nb) > cap(sd.obuf) {
			sd.obuf = make([]int32, len(nb)+16)
			sd.ebuf = make([]int32, len(nb)+16)
		}
		epA := sd.hasm.stamps(2)
		epB := epA + 1
		for _, wi := range dat[ch1off[v]:ch1off[v+1]] {
			mark[wi] = epA
		}
		start := len(h2)
		ob := sd.obuf[:len(nb)]
		if hop25 {
			// Only r's own clusterhead generates an entry.
			for i, r := range nb {
				ob[i] = code[r]
			}
			h2 = reserve(h2, len(nb))
			for i, r := range nb {
				// No is-head test: a clusterhead r is its own head and
				// adjacent to v, so it is marked epA and skipped — CH_HOP1
				// messages come from non-clusterheads only.
				if wi := ob[i]; mark[wi] < epA {
					mark[wi] = epB
					h2 = append(h2, Hop2Entry{W: heads32[wi], R: r})
				}
			}
		} else {
			// Every clusterhead r hears directly generates an entry.
			eb := sd.ebuf[:len(nb)]
			heard := 0
			for i, r := range nb {
				ob[i] = ch1off[r]
				eb[i] = ch1off[r+1]
				heard += int(eb[i] - ob[i])
			}
			h2 = reserve(h2, heard)
			for i, r := range nb {
				// No is-head test: a clusterhead r has an empty CH_HOP1
				// run (clusterheads are pairwise non-adjacent), so the
				// inner loop skips it for free.
				for _, wi := range dat[ob[i]:eb[i]] {
					if mark[wi] < epA {
						mark[wi] = epB
						h2 = append(h2, Hop2Entry{W: heads32[wi], R: r})
					}
				}
			}
		}
		sortEntriesByW(h2[start:])
		h2off[v+1] = int32(len(h2))
	}
	sd.h2 = h2
}

// reserve returns h2 with room for k more entries. A list that is short
// at least doubles, so a cold digest, which starts each strip's list at
// two entries per node (the 2.5-hop digest averages 1.3 to 2.7 from d=6
// to d=50, the 3-hop one 2.2 to 4.4), allocates it a bounded number of
// times at any n.
func reserve(h2 []Hop2Entry, k int) []Hop2Entry {
	if len(h2)+k > cap(h2) {
		return slices.Grow(h2, max(k, cap(h2)))
	}
	return h2
}

// sortEntriesByW orders already-deduplicated CH_HOP2 entries by
// clusterhead ID (the Ws are distinct, so no relay tiebreak is needed).
// The lists are tiny (one entry per 2-hop clusterhead sighting), so a
// straight insertion sort beats the generic sort machinery.
func sortEntriesByW(es []Hop2Entry) {
	for i := 1; i < len(es); i++ {
		e := es[i]
		j := i - 1
		for j >= 0 && es[j].W > e.W {
			es[j+1] = es[j]
			j--
		}
		es[j+1] = e
	}
}

// resize returns s with length n, reallocating only when its capacity is
// short; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
