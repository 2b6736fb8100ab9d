// Package cluster implements the distributed clustering algorithms that
// partition a MANET into one-hop clusters, the first stage of both the
// static and the dynamic backbone of the paper.
//
// The canonical algorithm is lowest-ID clustering (Ephremides, Wieselthier,
// Baker 1987), reproduced here with round-synchronous semantics:
//
//  1. Initially every node is a candidate.
//  2. In each round, every candidate that has the smallest ID among its
//     candidate neighbors declares itself clusterhead (CLUSTER_HEAD
//     message).
//  3. A candidate that hears one or more clusterhead declarations joins the
//     neighboring clusterhead with the smallest ID and announces itself as
//     a non-clusterhead (NON_CLUSTER_HEAD message).
//  4. Rounds repeat until no candidate remains.
//
// The resulting clusterhead set is a maximal independent set of the graph
// (two clusterheads are never neighbors, and every node is a clusterhead or
// adjacent to one). A member may affiliate with a larger-ID head whose
// declaration it heard first; we reproduce the distributed behaviour
// because it is what the paper's protocol produces on a real network.
//
// The rounds need not be run one by one. A candidate declares in the
// round after all its better neighbors have decided, and is captured in
// the round its first adjacent head declares; a worse neighbor declares
// only after the node has decided. So a node's outcome depends on its
// better neighbors alone, and Elect decides the nodes in one pass in
// priority order:
//
//   - A node with a clusterhead among its better neighbors is a member. It
//     decides in the earliest round in which one of those heads declared,
//     and joins the best head of that round.
//   - Any other node is a clusterhead. It declares in the round after the
//     last of its better neighbors decided (round 1 when it has none).
//
// Rounds is the last round in which a node decided.
package cluster

import (
	"fmt"

	"clustercast/internal/graph"
)

// Clustering is the result of a clustering pass over a graph.
type Clustering struct {
	// Head[v] is the clusterhead of v's cluster; Head[h] == h for heads.
	Head []int
	// Heads lists the clusterheads in ascending order.
	Heads []int
	// Rounds is the number of synchronous rounds the election took.
	Rounds int
	// When[v] is the 1-based election round in which v decided (declared
	// itself head, or joined one). Elect-based constructions fill it; it is
	// nil for clusterings assembled by other means (e.g. Maintain), which
	// the backbone repair rejects: it reads When to count its re-election
	// wavefront.
	When []int
}

// IsHead reports whether v is a clusterhead.
func (c *Clustering) IsHead(v int) bool { return c.Head[v] == v }

// NumClusters returns the number of clusters.
func (c *Clustering) NumClusters() int { return len(c.Heads) }

// Validate checks the structural invariants of a clustering over g and
// returns a descriptive error on the first violation:
// every node has a head, heads head themselves, members are adjacent to
// their head, and the head set is a maximal independent set (dominating +
// independent).
func (c *Clustering) Validate(g *graph.Graph) error {
	n := g.N()
	if len(c.Head) != n {
		return fmt.Errorf("cluster: Head has %d entries for %d nodes", len(c.Head), n)
	}
	for v := 0; v < n; v++ {
		h := c.Head[v]
		if h < 0 || h >= n {
			return fmt.Errorf("cluster: node %d has invalid head %d", v, h)
		}
		if c.Head[h] != h {
			return fmt.Errorf("cluster: head %d of node %d is not its own head", h, v)
		}
		if v != h && !g.HasEdge(v, h) {
			return fmt.Errorf("cluster: member %d not adjacent to its head %d", v, h)
		}
	}
	heads := graph.NewBitset(n)
	for _, h := range c.Heads {
		heads.Add(h)
	}
	if !g.IsIndependentSet(heads) {
		return fmt.Errorf("cluster: clusterheads are not an independent set")
	}
	if !g.IsDominatingSet(heads) {
		return fmt.Errorf("cluster: clusterheads are not a dominating set")
	}
	return nil
}

// Priority orders nodes during clusterhead election: the lower (rank,
// tiebreak) wins, and nodes equal on both are ordered by ID.
type Priority func(v int) (rank int, tiebreak int)

// LowestIDPriority is the paper's rule: smaller ID wins outright.
func LowestIDPriority(v int) (int, int) { return v, v }

// HighestDegreePriority prefers larger degree, breaking ties by lower ID —
// the highest-connectivity clustering variant used as an ablation.
func HighestDegreePriority(g *graph.Graph) Priority {
	return func(v int) (int, int) { return -g.Degree(v), v }
}

// LowestID returns the outcome of the round-synchronous lowest-ID
// clustering.
func LowestID(g *graph.Graph) *Clustering {
	return Elect(g, LowestIDPriority)
}

// HighestDegree returns the outcome of the round-synchronous
// highest-connectivity clustering.
func HighestDegree(g *graph.Graph) *Clustering {
	return Elect(g, HighestDegreePriority(g))
}

// Elect returns the outcome of the round-synchronous clusterhead election
// under the given priority: in every round each candidate that beats all
// its candidate neighbors declares head, and candidates hearing
// declarations join the best adjacent head. It computes that outcome,
// rounds and all, in the one pass the package comment describes. Each
// call uses a fresh workspace, so the result is independently allocated;
// hot replicate loops call Workspace.Elect to reuse buffers instead.
func Elect(g *graph.Graph, prio Priority) *Clustering {
	return NewWorkspace().Elect(g, prio)
}
