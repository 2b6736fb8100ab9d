// Package backbone builds the paper's *static backbone*: the cluster-based
// source-independent CDS consisting of all clusterheads plus the gateways
// each clusterhead selects to connect every clusterhead in its coverage
// set.
//
// The gateway selection is the paper's greedy heuristic: repeatedly select
// the neighbor that directly covers the most remaining 2-hop clusterheads,
// breaking ties by indirect 3-hop coverage and then by lowest ID; when a
// selected neighbor also covers 3-hop clusterheads indirectly, its relays
// are selected as well. After C² is exhausted, any remaining 3-hop
// clusterheads are connected by pairs.
package backbone

import (
	"fmt"
	"sort"

	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/graph"
	"clustercast/internal/obs"
)

// Selection metrics, folded once per per-head greedy selection (both the
// static pipeline and the dynamic backbone's per-broadcast selections run
// through selectCore). Counters are atomic, so selections running in
// several head strips at once fold in safely.
var (
	mSelections  = obs.NewCounter("backbone.selections")
	mGatewaysSel = obs.NewCounter("backbone.gateways_selected")
)

// Selection is the outcome of one clusterhead's gateway selection: the
// non-clusterhead nodes it appoints to connect its coverage set. Both
// phases of the greedy run until their targets drain, so the selection
// connects the head to every clusterhead of the targeted C² ∪ C³.
type Selection struct {
	// Head is the selecting clusterhead.
	Head int
	// Gateways lists the selected nodes (first-hop gateways and second-hop
	// relays), ascending; nil when the head selects none.
	Gateways []int
}

// Options tunes the gateway selection for ablation experiments. The zero
// value is the paper's algorithm.
type Options struct {
	// NoIndirectTieBreak disables the paper's tie-breaking rule that
	// prefers, among neighbors covering equally many 2-hop clusterheads,
	// the one that indirectly covers more 3-hop clusterheads. With the
	// rule disabled ties fall straight through to the lowest ID (ABL-TIE).
	NoIndirectTieBreak bool
}

// SelectGateways runs the paper's greedy selection for the clusterhead
// described by cov, restricted to the target sets need2 ⊆ C² and
// need3 ⊆ C³. Passing nil for either uses the full component, which is the
// static-backbone case; the dynamic backbone passes the pruned sets.
//
// The returned gateway set is sufficient to connect the head to every
// clusterhead in need2 ∪ need3: each target in need2 is adjacent to a
// selected gateway adjacent to the head, and each target in need3 is
// reached through a selected (gateway, relay) pair.
func SelectGateways(cov *coverage.Coverage, need2, need3 *graph.SparseSet) Selection {
	return SelectGatewaysOpt(cov, need2, need3, Options{})
}

// SelectGatewaysOpt is SelectGateways with explicit Options. Each call
// sizes a fresh n-entry mark array; a loop over many clusterheads holds
// one Workspace and calls Select instead.
func SelectGatewaysOpt(cov *coverage.Coverage, need2, need3 *graph.SparseSet, opts Options) Selection {
	var scr selScratch
	return scr.selection(cov, need2, need3, opts)
}

// selection runs the greedy selection over scr and returns it as a
// Selection that owns its sorted gateway list.
func (scr *selScratch) selection(cov *coverage.Coverage, need2, need3 *graph.SparseSet, opts Options) Selection {
	gws := append([]int(nil), selectCore(cov, need2, need3, opts, scr)...)
	sort.Ints(gws)
	return Selection{Head: cov.Head, Gateways: gws}
}

// selScratch is the bookkeeping of one greedy selection: an epoch-stamped
// mark array (mark[w] == e2 ⇒ w is an uncovered C² target, == e3 ⇒
// uncovered C³ target, == esel ⇒ already-selected gateway/relay; targets
// are clusterheads and selections are non-clusterheads, so one array
// serves all three) plus the initial C³ target list in ascending order
// and the selection output list. Marks give the gain loops and the phase-2
// cost probes O(1) lookups — the selection's inner loops — while the epoch
// bump makes per-head clearing free. Only sizing the mark array is Θ(n),
// so every head loop holds one scratch across its heads.
type selScratch struct {
	mark   []uint32
	epoch  uint32
	c3buf  []int
	selbuf []int
}

// selectCore is the greedy selection over caller-provided scratch. It
// returns the selected gateway/relay nodes in selection order (owned by
// scr, valid until its next use).
func selectCore(cov *coverage.Coverage, need2, need3 *graph.SparseSet, opts Options, scr *selScratch) []int {
	n := cov.N
	if cap(scr.mark) < n {
		scr.mark = make([]uint32, n)
		scr.epoch = 0
	}
	scr.mark = scr.mark[:n]
	if scr.epoch > ^uint32(0)-3 { // wrap: flush stale stamps
		full := scr.mark[:cap(scr.mark)]
		for i := range full {
			full[i] = 0
		}
		scr.epoch = 0
	}
	e2, e3, esel := scr.epoch+1, scr.epoch+2, scr.epoch+3
	scr.epoch += 3
	mark := scr.mark
	rem2, rem3 := 0, 0
	for _, w := range cov.C2 {
		if need2 != nil && !need2.Has(int(w)) {
			continue
		}
		mark[w] = e2
		rem2++
	}
	c3buf := scr.c3buf[:0]
	for _, w := range cov.C3 {
		if need3 != nil && !need3.Has(int(w)) {
			continue
		}
		mark[w] = e3
		rem3++
		c3buf = append(c3buf, int(w))
	}
	scr.c3buf = c3buf
	sel := scr.selbuf[:0]
	add := func(v int) {
		if mark[v] != esel {
			mark[v] = esel
			sel = append(sel, v)
		}
	}

	// Candidate connectors come pre-sorted by neighbor ID, so ascending
	// scans give the paper's deterministic lowest-ID tie-breaking for free.
	// Each scan walks the connectors' runs back to back.
	conns, direct, indirect := cov.Conns, cov.Direct, cov.Indirect

	// Phase 1: greedily exhaust C².
	for rem2 > 0 {
		best, bestD, bestI := -1, 0, 0
		var d0, i0 int32
		for i, cn := range conns {
			dr, ir := direct[d0:cn.DirEnd], indirect[i0:cn.IndEnd]
			d0, i0 = cn.DirEnd, cn.IndEnd
			d := 0
			for _, w := range dr {
				if mark[w] == e2 {
					d++
				}
			}
			if d == 0 {
				continue
			}
			in := 0
			if !opts.NoIndirectTieBreak {
				for _, e := range ir {
					if mark[e.W] == e3 {
						in++
					}
				}
			}
			if d > bestD || (d == bestD && in > bestI) {
				best, bestD, bestI = i, d, in
			}
		}
		if best < 0 {
			// Unreachable on a valid coverage set: every w ∈ C² is in some
			// neighbor's Direct run by construction.
			var left []int32
			for _, w := range cov.C2 {
				if mark[w] == e2 {
					left = append(left, w)
				}
			}
			panic(fmt.Sprintf("backbone: head %d cannot cover %v", cov.Head, left))
		}
		add(int(conns[best].V))
		bestDir, bestInd := cov.Runs(best)
		for _, w := range bestDir {
			if mark[w] == e2 {
				mark[w] = 0
				rem2--
			}
		}
		for _, e := range bestInd {
			if mark[e.W] == e3 {
				mark[e.W] = 0
				rem3--
				add(int(e.R))
			}
		}
	}

	// Phase 2: connect the leftover 3-hop clusterheads with pairs,
	// preferring pairs that reuse already-selected nodes. Targets are
	// consumed smallest-first (deterministic order); c3buf is ascending and
	// removals never re-add, so a lazy-deletion pointer walk serves Min.
	mi := 0
	for rem3 > 0 {
		for mark[c3buf[mi]] != e3 {
			mi++
		}
		w := c3buf[mi]
		bestV, bestR, bestCost := -1, -1, 3
		for i := range conns {
			r, ok := cov.Relay(i, w)
			if !ok {
				continue
			}
			v := int(conns[i].V)
			cost := 0
			if mark[v] != esel {
				cost++
			}
			if mark[r] != esel {
				cost++
			}
			if cost < bestCost || (cost == bestCost && (bestV == -1 || v < bestV)) {
				bestV, bestR, bestCost = v, r, cost
			}
		}
		if bestV == -1 {
			panic(fmt.Sprintf("backbone: head %d cannot reach 3-hop clusterhead %d", cov.Head, w))
		}
		add(bestV)
		add(bestR)
		mark[w] = 0
		rem3--
	}
	scr.selbuf = sel[:0]
	mSelections.Inc()
	mGatewaysSel.Add(int64(len(sel)))
	return sel
}

// Static is the assembled static backbone (cluster-based SI-CDS).
type Static struct {
	Mode coverage.Mode
	// Nodes is the backbone membership: all clusterheads plus every
	// selected gateway.
	Nodes *graph.Bitset
	// Heads lists the clusterheads, ascending.
	Heads []int
	// PerHead records each clusterhead's gateway selection, in Heads
	// order: PerHead[i].Head == Heads[i].
	PerHead []Selection
}

// Size returns the number of backbone nodes (the paper's "size of the
// CDS", Figure 6).
func (s *Static) Size() int { return s.Nodes.Count() }

// GatewayCount returns the number of non-clusterhead backbone members.
func (s *Static) GatewayCount() int { return s.Size() - len(s.Heads) }

// BuildStatic constructs the static backbone of a clustered network under
// the given coverage-set mode.
func BuildStatic(g *graph.Graph, cl *cluster.Clustering, mode coverage.Mode) *Static {
	b := coverage.NewBuilder(g, cl, mode)
	return BuildStaticFrom(b, cl)
}

// BuildStaticFrom constructs the static backbone reusing an existing
// coverage builder (so callers can share the builder across algorithms).
func BuildStaticFrom(b *coverage.Builder, cl *cluster.Clustering) *Static {
	return BuildStaticOpt(b, cl, Options{})
}

// BuildStaticOpt is BuildStaticFrom with explicit selection Options. The
// head loop refills one coverage value and one selection scratch, so the
// build costs O(n) plus the heads' coverage sizes.
func BuildStaticOpt(b *coverage.Builder, cl *cluster.Clustering, opts Options) *Static {
	s := &Static{
		Mode:    b.Mode(),
		Nodes:   graph.NewBitset(b.N()),
		Heads:   append([]int(nil), cl.Heads...),
		PerHead: make([]Selection, 0, len(cl.Heads)),
	}
	var loop selStrip
	for _, h := range cl.Heads {
		s.Nodes.Add(h)
		sel := loop.scr.selection(b.OfScratch(h, &loop.cov, &loop.asm), nil, nil, opts)
		s.PerHead = append(s.PerHead, sel)
		for _, v := range sel.Gateways {
			s.Nodes.Add(v)
		}
	}
	return s
}

// Verify checks Theorem 1: on a connected g, the static backbone is a
// connected dominating set. It reports which half fails: domination or
// the connectivity of the induced subgraph.
func (s *Static) Verify(g *graph.Graph) error {
	if !g.IsDominatingSet(s.Nodes) {
		return fmt.Errorf("backbone: static backbone is not dominating")
	}
	if !g.InducedConnected(graph.NewScratch(0), s.Nodes) {
		return fmt.Errorf("backbone: static backbone is not connected")
	}
	return nil
}
