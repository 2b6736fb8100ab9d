package coverage

import (
	"slices"

	"clustercast/internal/cluster"
	"clustercast/internal/graph"
)

// resetReference digests b for a clustered network with the original
// sort-then-dedupe algorithm, the test oracle of ResetParallel: it
// collects every CH_HOP2 candidate of a node, sorts them by (W, R) and
// keeps the lowest-ID relay per clusterhead, into a single strip. It
// allocates fresh digest storage, so a builder it digested serves coverage
// sets through OfScratch independently of the production digest's buffers.
func (b *Builder) resetReference(g *graph.Graph, cl *cluster.Clustering, mode Mode) {
	n := g.N()
	b.g, b.cl, b.mode = g, cl, mode

	// CH_HOP1 digests: v's report is exactly the head-neighbors of v, so
	// the pass iterates the heads and scatters each head into its
	// neighbors' runs (count, prefix-sum, cursor fill). Heads come
	// ascending in cl.Heads and each head appears once, so every run is
	// sorted and duplicate-free by construction.
	off := make([]int32, n+1)
	for _, h := range cl.Heads {
		for _, v := range g.Neighbors(h) {
			off[v+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	cur := slices.Clone(off[:n])
	b.ch1 = make([]int32, off[n])
	for _, h := range cl.Heads {
		for _, v := range g.Neighbors(h) {
			b.ch1[cur[v]] = int32(h)
			cur[v]++
		}
	}
	b.d32 = digest32{off: off}

	// CH_HOP2 digests: collect candidate (w, r) entries, sort by (w, r)
	// and keep the lowest-ID relay per w, all in one list.
	var asm AsmScratch
	asm.ensure(n)
	var scratch, all []Hop2Entry
	b.h2off = make([]int32, n+1)
	for v := 0; v < n; v++ {
		b.h2off[v+1] = b.h2off[v]
		if cl.IsHead(v) {
			continue
		}
		epoch := asm.stamps(1)
		mark := asm.mark
		for _, w := range b.CH1(v) {
			mark[w] = epoch
		}
		scratch = scratch[:0]
		for _, r32 := range g.Neighbors(v) {
			r := int(r32)
			if cl.IsHead(r) {
				continue // CH_HOP1 messages come from non-clusterheads only
			}
			switch mode {
			case Hop25:
				// Only r's own clusterhead generates an entry.
				if w := cl.Head[r]; mark[w] != epoch {
					scratch = append(scratch, Hop2Entry{W: int32(w), R: r32})
				}
			case Hop3:
				// Every clusterhead r hears directly generates an entry.
				for _, w := range b.CH1(r) {
					if mark[w] != epoch {
						scratch = append(scratch, Hop2Entry{W: w, R: r32})
					}
				}
			}
		}
		sortEntries(scratch)
		for i, e := range scratch {
			if i > 0 && scratch[i-1].W == e.W {
				continue // keep the lowest-ID relay ("first entry wins")
			}
			all = append(all, e)
		}
		b.h2off[v+1] = int32(len(all))
	}
	b.shards = []buildShard{{h2: all, hi: n}}
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
