package coverage

import (
	"math"
	"slices"

	"clustercast/internal/cluster"
	"clustercast/internal/graph"
)

// buildShard is the private state of one digest strip: its slice of the
// CH_HOP2 entry space lives in an arena only it appends to, and the
// published ch2 views point straight into the arena — the "merge" is the
// node-ordered view table itself, so no copy pass is needed. The arena is
// chunked: entries go into chunks that are never reallocated, so published
// views stay valid without keeping dead arena generations alive — with a
// single growing arena, every realloc left the previous array pinned by
// the views published before it, and at large n the ballooning heap turned
// the digest into a GC storm. Chunks are reused across calls. hasm is the
// strip's mark scratch over the dense head universe (see digest32).
type buildShard struct {
	chunks  [][]Hop2Entry
	scratch []Hop2Entry
	hasm    AsmScratch
	obuf    []int32 // per-node probe gather buffers (one slot per neighbor)
	ebuf    []int32
	total   int // CH_HOP1 entries owned by this strip
	// chunkCap is the capacity of a new arena chunk: one entry per node
	// of the strip, clamped to [minChunk, maxChunk], so a small network's
	// digest stays small.
	chunkCap int
}

// Arena chunk capacities in entries (1 KiB to 1 MiB). One node's entries
// always live in one chunk: a flush that does not fit opens the next
// chunk, and a node with more entries than chunkCap gets a chunk of its
// own size.
const (
	minChunk = 1 << 6
	maxChunk = 1 << 16
)

// flush appends one node's deduplicated, sorted entries to the shard
// arena and returns the published full-slice-expression view.
func (sd *buildShard) flush(ci *int, scratch []Hop2Entry) []Hop2Entry {
	for {
		if *ci == len(sd.chunks) {
			sd.chunks = append(sd.chunks, make([]Hop2Entry, 0, max(sd.chunkCap, len(scratch))))
		}
		cur := sd.chunks[*ci]
		if len(cur)+len(scratch) <= cap(cur) {
			start := len(cur)
			cur = append(cur, scratch...)
			sd.chunks[*ci] = cur
			return cur[start:len(cur):len(cur)]
		}
		*ci++
	}
}

// digest32 is the packed shadow of the CH_HOP1 digests and the cluster
// assignment the digest builds alongside the []int views it publishes.
// Clusterheads are renumbered into dense indices 0..|heads|−1 (ascending,
// so dense order equals ID order): the CH_HOP2 pass performs ~2m random
// probes, and in dense-index space its mark array is |heads|-sized (~40 KB
// at n=100k, L1-resident) instead of n-sized, while the per-relay tables
// shrink to one int32 load each.
type digest32 struct {
	code  []int32 // code[v]: dense index of head[v]
	heads []int32 // cl.Heads as int32 (dense index -> head ID)
	off   []int32 // ch1 CSR offsets: ch1 of v is dat[off[v]:off[v+1]]
	dat   []int32 // ch1 CSR entries as dense head indices
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
// them, and all its random probes go through the dense-index int32 shadow
// (digest32).
func (b *Builder) ResetParallel(g *graph.Graph, cl *cluster.Clustering, mode Mode, workers int) {
	n, nh := g.N(), len(cl.Heads)
	b.g, b.cl, b.mode = g, cl, mode
	b.ch1, b.ch2 = resize(b.ch1, n), resize(b.ch2, n)
	b.sh.ResetRange(n, workers)
	k := b.sh.K()
	for len(b.shards) < k {
		b.shards = append(b.shards, buildShard{})
	}
	d := &b.d32
	b.cnt = resize(b.cnt, n)
	d.code, d.off, d.heads = resize(d.code, n), resize(d.off, n+1), resize(d.heads, nh)
	for i, h := range cl.Heads {
		d.code[h] = int32(i)
		d.heads[i] = int32(h)
	}

	b.strips(workers, (*Builder).countStrip)

	// Sequential stitch: prefix-sum the counts into start offsets and
	// publish the (still empty) CH_HOP1 views.
	total := 0
	for s := 0; s < k; s++ {
		total += b.shards[s].total
	}
	// The int32 digest shadow addresses CH_HOP1 entries with 31-bit
	// offsets. Σ deg(head) ≈ n·d̄/π stays far below 2³¹ for every paper
	// regime (n=1M at d=18 is ~1.8M entries); a graph dense enough to
	// overflow would need ~2.1 billion head-adjacencies, so fail loudly
	// instead of corrupting the digest.
	if int64(total) > math.MaxInt32 {
		panic("coverage: CH_HOP1 digest exceeds 2^31 entries; the int32 digest shadow cannot address it")
	}
	b.ch1backing, d.dat = resize(b.ch1backing, total), resize(d.dat, total)
	backing, cnt := b.ch1backing, b.cnt
	off := 0
	for v := 0; v < n; v++ {
		c := cnt[v]
		b.ch1[v] = backing[off : off+c : off+c]
		d.off[v] = int32(off)
		cnt[v] = off
		off += c
	}
	d.off[n] = int32(off)

	b.strips(workers, (*Builder).fillStrip)
	b.strips(workers, (*Builder).hop2Strip)
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

// countStrip is the CH_HOP1 count pass over strip s. ch1[v] is exactly the
// head-neighbors of v, so the pass iterates the heads and counts each head
// at its neighbors — only edges incident to a clusterhead are touched, a
// ~(k/n)·2m fraction of the graph. Each head's adjacency list is
// ascending, so the strip reads only its [lo, hi) segment and every cnt[v]
// has a single writer. The strip also renumbers its members' cluster
// assignment into dense head indices, reading the heads' own entries,
// which were set before the strips started and which no strip writes.
func (b *Builder) countStrip(s int) {
	lo, hi := b.sh.Range(s)
	g, head, cnt, code := b.g, b.cl.Head, b.cnt, b.d32.code
	for v := lo; v < hi; v++ {
		cnt[v] = 0
		if h := head[v]; h != v {
			code[v] = code[h]
		}
	}
	total := 0
	for _, h := range b.cl.Heads {
		nb := g.Neighbors(h)
		for _, v := range nb[segment(nb, lo):] {
			if v >= hi {
				break
			}
			cnt[v]++
			total++
		}
	}
	b.shards[s].total = total
}

// segment returns the index of the first entry ≥ lo of the ascending
// adjacency list nb: where a strip starting at lo begins reading it.
func segment(nb []int, lo int) int {
	if lo == 0 {
		return 0
	}
	i, _ := slices.BinarySearch(nb, lo)
	return i
}

// fillStrip is the CH_HOP1 fill pass over strip s: a cursor fill, heads
// ascending, so each ch1[v] comes out sorted and duplicate-free. The
// dense-index shadow is filled through the same cursors.
func (b *Builder) fillStrip(s int) {
	lo, hi := b.sh.Range(s)
	g, cnt, backing, dat := b.g, b.cnt, b.ch1backing, b.d32.dat
	for hi32, h := range b.cl.Heads {
		nb := g.Neighbors(h)
		for _, v := range nb[segment(nb, lo):] {
			if v >= hi {
				break
			}
			c := cnt[v]
			backing[c] = h
			dat[c] = int32(hi32)
			cnt[v] = c + 1
		}
	}
}

// hop2Strip is the CH_HOP2 pass over strip s: stream candidates in
// ascending relay order through two stamps — epA marks v's adjacent heads
// (never reported), epB marks clusterheads already sighted for v (the
// first sighting has the lowest relay, the "first entry wins" rule) — then
// insertion-sort the deduplicated survivors. The mark array lives in
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
	g, head, ch2, hop25 := b.g, b.cl.Head, b.ch2, b.mode == Hop25
	code, heads32, ch1off, dat := b.d32.code, b.d32.heads, b.d32.off, b.d32.dat
	sd.hasm.ensure(len(heads32))
	sd.chunkCap = min(maxChunk, max(minChunk, hi-lo))
	mark := sd.hasm.mark
	for i := range sd.chunks {
		sd.chunks[i] = sd.chunks[i][:0]
	}
	ci := 0
	scratch := sd.scratch[:0]
	for v := lo; v < hi; v++ {
		if head[v] == v {
			ch2[v] = nil
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
		scratch = scratch[:0]
		ob := sd.obuf[:len(nb)]
		if hop25 {
			// Only r's own clusterhead generates an entry.
			for i, r := range nb {
				ob[i] = code[r]
			}
			for i, r := range nb {
				// No is-head test: a clusterhead r is its own head and
				// adjacent to v, so it is marked epA and skipped — CH_HOP1
				// messages come from non-clusterheads only.
				if wi := ob[i]; mark[wi] < epA {
					mark[wi] = epB
					scratch = append(scratch, Hop2Entry{W: heads32[wi], R: int32(r)})
				}
			}
		} else {
			// Every clusterhead r hears directly generates an entry.
			eb := sd.ebuf[:len(nb)]
			for i, r := range nb {
				ob[i] = ch1off[r]
				eb[i] = ch1off[r+1]
			}
			for i, r := range nb {
				// No is-head test: a clusterhead r has an empty ch1 list
				// (clusterheads are pairwise non-adjacent), so the inner
				// loop skips it for free.
				for _, wi := range dat[ob[i]:eb[i]] {
					if mark[wi] < epA {
						mark[wi] = epB
						scratch = append(scratch, Hop2Entry{W: heads32[wi], R: int32(r)})
					}
				}
			}
		}
		if len(scratch) == 0 {
			ch2[v] = nil
			continue
		}
		sortEntriesByW(scratch)
		ch2[v] = sd.flush(&ci, scratch)
	}
	sd.scratch = scratch
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
