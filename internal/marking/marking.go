// Package marking implements the classic source-independent CDS of Wu and
// Li (DIALM 1999), cited by the paper as one of the principal SI-CDS
// baselines: the *marking process* with pruning Rules 1 and 2.
//
// Marking: a node is marked (joins the CDS) iff it has two neighbors that
// are not themselves neighbors — i.e. it lies on a shortest path between
// some pair of its neighbors.
//
// Rule 1: a marked node v unmarks itself when some marked neighbor u with
// higher ID covers it entirely: N[v] ⊆ N[u].
//
// Rule 2: a marked node v unmarks itself when two *adjacent* marked
// neighbors u, w with higher IDs jointly cover its open neighborhood:
// N(v) ⊆ N(u) ∪ N(w).
//
// On a complete graph no node is ever marked (every pair of neighbors is
// adjacent); the conventional fix — also used here — is to fall back to a
// single arbitrary dominator (the lowest ID).
package marking

import (
	"clustercast/internal/graph"
)

// Build runs the marking process with Rules 1 and 2 on g and returns the
// resulting CDS membership.
func Build(g *graph.Graph) *graph.Bitset {
	n := g.N()
	marked := graph.NewBitset(n)
	if n == 0 {
		return marked
	}
	for v := 0; v < n; v++ {
		list := g.Neighbors(v)
		for i := 0; i < len(list) && !marked.Has(v); i++ {
			for j := i + 1; j < len(list); j++ {
				if !g.HasEdge(int(list[i]), int(list[j])) {
					marked.Add(v)
					break
				}
			}
		}
	}

	// Rule 1: coverage by one higher-ID marked neighbor.
	// closedSubset reports N[v] ⊆ N[u].
	closedSubset := func(v, u int) bool {
		if !g.HasEdge(u, v) {
			return false
		}
		for _, x := range g.Neighbors(v) {
			if int(x) != u && !g.HasEdge(u, int(x)) {
				return false
			}
		}
		return true
	}
	for v := 0; v < n; v++ {
		if !marked.Has(v) {
			continue
		}
		for _, u := range g.Neighbors(v) {
			if marked.Has(int(u)) && int(u) > v && closedSubset(v, int(u)) {
				marked.Remove(v)
				break
			}
		}
	}

	// Rule 2: joint coverage by two adjacent higher-ID marked neighbors.
	for v := 0; v < n; v++ {
		if !marked.Has(v) {
			continue
		}
		var cand []int32
		for _, u := range g.Neighbors(v) {
			if marked.Has(int(u)) && int(u) > v {
				cand = append(cand, u)
			}
		}
	rule2:
		for i := 0; i < len(cand); i++ {
			for j := i + 1; j < len(cand); j++ {
				u, w := int(cand[i]), int(cand[j])
				if !g.HasEdge(u, w) {
					continue
				}
				covered := true
				for _, x32 := range g.Neighbors(v) {
					if x := int(x32); x != u && x != w && !g.HasEdge(u, x) && !g.HasEdge(w, x) {
						covered = false
						break
					}
				}
				if covered {
					marked.Remove(v)
					break rule2
				}
			}
		}
	}

	if marked.Count() == 0 {
		// Complete graph (or single node): one dominator suffices.
		marked.Add(0)
	}
	return marked
}
