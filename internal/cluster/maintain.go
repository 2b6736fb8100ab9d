package cluster

import "clustercast/internal/graph"

// MaintainStats quantifies the work an incremental maintenance pass did —
// the churn a proactive backbone pays under mobility.
type MaintainStats struct {
	// Reaffiliated counts members that switched to a different clusterhead.
	Reaffiliated int
	// Promoted counts nodes that became clusterheads.
	Promoted int
	// Demoted counts clusterheads that lost their role.
	Demoted int
}

// Total returns the total number of role/affiliation changes.
func (s MaintainStats) Total() int { return s.Reaffiliated + s.Promoted + s.Demoted }

// Maintain incrementally repairs a clustering after the topology changed,
// in the spirit of least-cluster-change (LCC) maintenance: instead of
// re-running the election from scratch (which renames clusterheads
// wholesale and maximizes churn), it applies the two LCC events only:
//
//  1. A member no longer adjacent to its clusterhead joins the lowest-ID
//     adjacent clusterhead, or promotes itself when none is in range.
//  2. When two clusterheads become neighbors, the higher-ID one gives up
//     its role and rejoins as a member; its orphaned members re-affiliate
//     by rule 1.
//
// The two rules cascade until stable. The result is a valid clustering of
// the new graph (heads form a maximal independent set *relative to the
// retained heads*; unlike a fresh lowest-ID election the head set is
// generally not the one a from-scratch run would produce — that is the
// point).
func Maintain(g *graph.Graph, prev *Clustering) (*Clustering, MaintainStats) {
	n := g.N()
	if len(prev.Head) != n {
		panic("cluster: Maintain requires a clustering over the same node set")
	}
	head := append([]int(nil), prev.Head...)
	isHead := make([]bool, n)
	for v := 0; v < n; v++ {
		if head[v] == v {
			isHead[v] = true
		}
	}
	var st MaintainStats
	origHead := prev.Head

	// bestAdjacentHead returns the lowest-ID clusterhead adjacent to v,
	// or -1.
	bestAdjacentHead := func(v int) int {
		best := -1
		for _, u := range g.Neighbors(v) {
			if isHead[u] && (best == -1 || int(u) < best) {
				best = int(u)
			}
		}
		return best
	}

	for changed, iter := true, 0; changed; iter++ {
		if iter > n+2 {
			panic("cluster: Maintain did not stabilize") // cannot happen: demotions strictly favor lower IDs
		}
		changed = false

		// Rule 2: adjacent clusterheads — the higher ID demotes.
		for v := 0; v < n; v++ {
			if !isHead[v] {
				continue
			}
			for _, u := range g.Neighbors(v) {
				if isHead[u] && int(u) < v {
					isHead[v] = false
					st.Demoted++
					head[v] = int(u)
					changed = true
					break
				}
			}
		}

		// Rule 1: members must be adjacent to their head.
		for v := 0; v < n; v++ {
			if isHead[v] {
				head[v] = v
				continue
			}
			h := head[v]
			if h >= 0 && h < n && isHead[h] && g.HasEdge(v, h) {
				continue // still fine
			}
			if b := bestAdjacentHead(v); b != -1 {
				if head[v] != b {
					head[v] = b
					st.Reaffiliated++
				}
				changed = true
			} else {
				// Orphaned with no head in range: promote.
				isHead[v] = true
				head[v] = v
				st.Promoted++
				changed = true
			}
		}
	}

	// Reaffiliation accounting against the original assignment (the loops
	// above may touch a node several times while cascading).
	st.Reaffiliated = 0
	for v := 0; v < n; v++ {
		if !isHead[v] && head[v] != origHead[v] && origHead[v] != v {
			st.Reaffiliated++
		}
	}

	c := &Clustering{Head: head}
	for v := 0; v < n; v++ {
		if head[v] == v {
			c.Heads = append(c.Heads, v)
		}
	}
	return c, st
}
