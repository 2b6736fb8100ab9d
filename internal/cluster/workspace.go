package cluster

import (
	"cmp"
	"slices"

	"clustercast/internal/graph"
)

// Workspace owns every buffer a clusterhead election needs — per-node
// decisions and rounds, the head list, and the election order of a
// priority that does not ascend with ID — plus the result Clustering
// itself. A worker reuses one Workspace across replicates, so
// steady-state elections allocate nothing.
//
// The Clustering returned by Elect/LowestID is owned by the workspace and
// valid only until the next election on the same workspace.
type Workspace struct {
	headOf []int
	when   []int
	order  []int
	heads  []int
	c      Clustering
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// ensure sizes the per-node buffers for n nodes.
func (ws *Workspace) ensure(n int) {
	if cap(ws.headOf) < n {
		ws.headOf = make([]int, n)
		ws.when = make([]int, n)
	}
	ws.headOf = ws.headOf[:n]
	ws.when = ws.when[:n]
}

// LowestID runs the paper's lowest-ID election into the workspace.
func (ws *Workspace) LowestID(g *graph.Graph) *Clustering {
	return ws.Elect(g, LowestIDPriority)
}

// Elect runs the clusterhead election exactly like the package-level
// Elect, reusing the workspace buffers instead of allocating. It decides
// the nodes in one pass in priority order (see the package comment): each
// node reads only its better neighbors, which are all decided by then.
func (ws *Workspace) Elect(g *graph.Graph, prio Priority) *Clustering {
	n := g.N()
	ws.ensure(n)
	headOf, when := ws.headOf, ws.when

	// When the priority ascends with ID, as lowest-ID does, the priority
	// order is ID order: the pass runs over the IDs and never compares.
	// Any other priority, the highest-degree ablation's, is sorted into
	// order and compared through prio.
	ascending := true
	for v, pr, pt := 0, 0, 0; v < n && ascending; v++ {
		r, t := prio(v)
		ascending = v == 0 || r > pr || r == pr && t >= pt
		pr, pt = r, t
	}
	compare := func(a, b int) int {
		ra, ta := prio(a)
		rb, tb := prio(b)
		return cmp.Or(cmp.Compare(ra, rb), cmp.Compare(ta, tb), cmp.Compare(a, b))
	}
	if !ascending {
		ws.order = ws.order[:0]
		for v := 0; v < n; v++ {
			ws.order = append(ws.order, v)
		}
		slices.SortFunc(ws.order, compare)
	}

	// A node with a better head neighbor joins, in the earliest round among
	// those heads, the best head of that round; any other node declares in
	// the round after its last better neighbor decided. During the pass
	// when[u] is 0 while u is undecided, that is, not better than the node
	// being decided, and a head's round is stored negated, so one load
	// tells a neighbor's state and round.
	clear(when)
	rounds := 0
	for i := 0; i < n; i++ {
		v := i
		if !ascending {
			v = ws.order[i]
		}
		best, bestRound, latest := -1, 0, 0
	scan:
		for _, u := range g.Neighbors(v) {
			switch r := when[u]; {
			case r > 0:
				latest = max(latest, r)
			case r < 0:
				// In ID order a later head of the row is worse, so the
				// first head of round 1 settles the node.
				if best < 0 || -r < bestRound || -r == bestRound && !ascending && compare(int(u), best) < 0 {
					best, bestRound = int(u), -r
				}
				if ascending && bestRound == 1 {
					break scan
				}
			case ascending:
				break scan // the rest of the ascending row is undecided too
			}
		}
		if best >= 0 {
			headOf[v], when[v] = best, bestRound
		} else {
			headOf[v], when[v] = v, -(latest + 1)
			rounds = max(rounds, latest+1)
		}
	}
	// Restore the heads' rounds, listing the heads in ID order.
	ws.heads = ws.heads[:0]
	for v, r := range when {
		if r < 0 {
			when[v] = -r
			ws.heads = append(ws.heads, v)
		}
	}
	ws.c = Clustering{Head: headOf, Heads: ws.heads, Rounds: rounds, When: when}
	return &ws.c
}
