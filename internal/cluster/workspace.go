package cluster

import (
	"cmp"
	"slices"

	"clustercast/internal/graph"
)

// Workspace owns every buffer a clusterhead election needs — per-node
// decisions and rounds, priorities, the election order and the head list —
// plus the result Clustering itself. A worker reuses one Workspace across
// replicates, so steady-state elections allocate nothing.
//
// The Clustering returned by Elect/LowestID is owned by the workspace and
// valid only until the next election on the same workspace.
type Workspace struct {
	headOf []int
	when   []int
	rank   []int
	tie    []int
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
		ws.rank = make([]int, n)
		ws.tie = make([]int, n)
		ws.order = make([]int, n)
	}
	ws.headOf = ws.headOf[:n]
	ws.when = ws.when[:n]
	ws.rank = ws.rank[:n]
	ws.tie = ws.tie[:n]
	ws.order = ws.order[:n]
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
	headOf, when, rank, tie, order := ws.headOf, ws.when, ws.rank, ws.tie, ws.order

	// Evaluate the priority once per node. When it ascends with ID, as
	// lowest-ID does, the priority order is ID order and needs no sort.
	ascending := true
	for v := 0; v < n; v++ {
		rank[v], tie[v] = prio(v)
		order[v] = v
		if v > 0 && (rank[v] < rank[v-1] || rank[v] == rank[v-1] && tie[v] < tie[v-1]) {
			ascending = false
		}
	}
	if !ascending {
		slices.SortFunc(order, func(a, b int) int {
			return cmp.Or(cmp.Compare(rank[a], rank[b]), cmp.Compare(tie[a], tie[b]), cmp.Compare(a, b))
		})
	}
	better := func(a, b int) bool {
		if rank[a] != rank[b] {
			return rank[a] < rank[b]
		}
		if tie[a] != tie[b] {
			return tie[a] < tie[b]
		}
		return a < b
	}

	// A node with a better head neighbor joins, in the earliest round among
	// those heads, the best head of that round; any other node declares in
	// the round after its last better neighbor decided. During the pass
	// when[u] is 0 while u is undecided, that is, not better than the node
	// being decided, and a head's round is stored negated, so one load
	// tells a neighbor's state and round.
	clear(when)
	rounds := 0
	for _, v := range order {
		best, bestRound, latest := -1, 0, 0
	scan:
		for _, u := range g.Neighbors(v) {
			switch r := when[u]; {
			case r > 0:
				latest = max(latest, r)
			case r < 0:
				// In ID order a later head of the row is worse, so the
				// first head of round 1 settles the node.
				if best < 0 || -r < bestRound || -r == bestRound && !ascending && better(u, best) {
					best, bestRound = u, -r
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
