package coverage

import (
	"clustercast/internal/cluster"
	"clustercast/internal/graph"
)

// resetReference digests b for a clustered network with the original
// sort-then-dedupe algorithm, the test oracle of ResetParallel: it
// collects every CH_HOP2 candidate of a node, sorts them by (W, R) and
// keeps the lowest-ID relay per clusterhead. It allocates fresh digest
// storage, so a builder it digested serves coverage sets through OfScratch
// independently of the production digest's buffers.
func (b *Builder) resetReference(g *graph.Graph, cl *cluster.Clustering, mode Mode) {
	n := g.N()
	b.g, b.cl, b.mode = g, cl, mode
	b.ch1 = make([][]int, n)
	b.ch2 = make([][]Hop2Entry, n)

	// CH_HOP1 digests: ch1[v] is exactly the head-neighbors of v, so the
	// pass iterates the heads and scatters each head into its neighbors'
	// lists (count, prefix-sum, cursor fill). Heads come ascending in
	// cl.Heads and each head appears once, so every ch1[v] is sorted and
	// duplicate-free by construction.
	cnt := make([]int, n)
	total := 0
	for _, h := range cl.Heads {
		for _, v := range g.Neighbors(h) {
			cnt[v]++
			total++
		}
	}
	backing := make([]int, total)
	off := 0
	for v := 0; v < n; v++ {
		c := cnt[v]
		b.ch1[v] = backing[off : off+c : off+c]
		cnt[v] = off
		off += c
	}
	for _, h := range cl.Heads {
		for _, v := range g.Neighbors(h) {
			backing[cnt[v]] = h
			cnt[v]++
		}
	}

	// CH_HOP2 digests: collect candidate (w, r) entries, sort by (w, r)
	// and keep the lowest-ID relay per w.
	var asm AsmScratch
	asm.ensure(n)
	var scratch []Hop2Entry
	for v := 0; v < n; v++ {
		if cl.IsHead(v) {
			continue
		}
		epoch := asm.stamps(1)
		mark := asm.mark
		for _, w := range b.ch1[v] {
			mark[w] = epoch
		}
		scratch = scratch[:0]
		for _, r := range g.Neighbors(v) {
			if cl.IsHead(r) {
				continue // CH_HOP1 messages come from non-clusterheads only
			}
			switch mode {
			case Hop25:
				// Only r's own clusterhead generates an entry.
				if w := cl.Head[r]; mark[w] != epoch {
					scratch = append(scratch, Hop2Entry{W: int32(w), R: int32(r)})
				}
			case Hop3:
				// Every clusterhead r hears directly generates an entry.
				for _, w := range b.ch1[r] {
					if mark[w] != epoch {
						scratch = append(scratch, Hop2Entry{W: int32(w), R: int32(r)})
					}
				}
			}
		}
		if len(scratch) == 0 {
			continue
		}
		sortEntries(scratch)
		var entries []Hop2Entry
		for _, e := range scratch {
			if len(entries) > 0 && entries[len(entries)-1].W == e.W {
				continue // keep the lowest-ID relay ("first entry wins")
			}
			entries = append(entries, e)
		}
		b.ch2[v] = entries
	}
}

// sortEntries orders CH_HOP2 entries by (W, R) with an insertion sort.
func sortEntries(es []Hop2Entry) {
	for i := 1; i < len(es); i++ {
		e := es[i]
		j := i - 1
		for j >= 0 && (es[j].W > e.W || (es[j].W == e.W && es[j].R > e.R)) {
			es[j+1] = es[j]
			j--
		}
		es[j+1] = e
	}
}
