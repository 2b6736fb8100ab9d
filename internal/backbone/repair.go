package backbone

import (
	"fmt"

	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/graph"
	"clustercast/internal/obs"
)

// Repair metrics, folded once per repair pass.
var (
	mRepairs         = obs.NewCounter("backbone.repairs")
	mRepairTracked   = obs.NewCounter("backbone.repair_tracked")
	mRepairReselects = obs.NewCounter("backbone.repair_reselections")
)

// RepairStats summarizes one repair pass.
type RepairStats struct {
	// Changed counts the nodes whose liveness flipped since the baseline.
	Changed int
	// DeadHeads counts baseline clusterheads that went down.
	DeadHeads int
	// Tracked counts the nodes of the re-election wavefront: the live nodes
	// a round-by-round replay of the election would have to re-run, because
	// a change reached them while the baseline still had them undecided.
	// Every other live node keeps its baseline head and round.
	Tracked int
	// Rehomed counts live nodes whose head assignment changed.
	Rehomed int
	// Reselected counts the clusterheads whose gateway selection was redone.
	Reselected int
}

// Repair recovers the backbone after a liveness change: given the baseline
// clustering cl and static backbone base — valid for the liveness predicate
// wasUp — it produces the clustering and backbone of the surviving graph
// under isUp.
//
// The clustering is the one-pass lowest-ID election (cluster.LowestID) of
// the surviving graph, linear in its size. The stats report the
// round-synchronous wavefront of that re-election (see wavefront), and the
// greedy gateway selection is redone only for the clusterheads within three
// hops of a liveness flip or an affiliation change; every other head keeps
// its baseline selection.
//
// Conventions: the returned clustering covers all of g's nodes — a dead
// node is an isolated singleton head of round 1 in the surviving graph —
// so repaired clusterings chain through subsequent Repair calls as new
// baselines. The returned Static contains live nodes only. cl must carry
// When (an Elect-produced clustering under lowest-ID priority); cl' from
// Repair always does.
func Repair(g *graph.Graph, cl *cluster.Clustering, base *Static, wasUp, isUp func(int) bool, opts Options, tr *obs.Tracer) (*cluster.Clustering, *Static, *RepairStats, error) {
	n := g.N()
	if len(cl.Head) != n {
		return nil, nil, nil, fmt.Errorf("backbone: clustering covers %d nodes, graph has %d", len(cl.Head), n)
	}
	if cl.When == nil {
		return nil, nil, nil, fmt.Errorf("backbone: repair needs an election-produced clustering (When is nil)")
	}
	st := &RepairStats{}
	var changed []int
	for v := 0; v < n; v++ {
		if wasUp(v) != isUp(v) {
			changed = append(changed, v)
			if !isUp(v) && cl.Head[v] == v {
				st.DeadHeads++
			}
		}
	}
	st.Changed = len(changed)

	gLive := liveGraph(g, isUp)
	repaired := cluster.LowestID(gLive)
	st.Tracked = wavefront(g, cl, repaired, changed, isUp)

	// Gateway re-selection is bounded by a 3-hop ball around every node the
	// coverage sets can see differently: liveness flips and affiliation
	// changes. Heads outside the ball reuse their baseline selection.
	dirty := changed
	for v := 0; v < n; v++ {
		if repaired.Head[v] != cl.Head[v] {
			dirty = append(dirty, v)
			if isUp(v) {
				st.Rehomed++
			}
		}
	}
	redo := hopBall(g, dirty, 3, isUp)

	var b *coverage.Builder
	var loop selStrip // reselections refill one coverage value and scratch
	static := &Static{Mode: base.Mode, Nodes: graph.NewBitset(n)}
	bi := 0 // walks base.Heads beside repaired.Heads; both ascend
	for _, h := range repaired.Heads {
		if !isUp(h) {
			continue
		}
		static.Heads = append(static.Heads, h)
		static.Nodes.Add(h)
		for bi < len(base.Heads) && base.Heads[bi] < h {
			bi++
		}
		var sel Selection
		if bi < len(base.Heads) && base.Heads[bi] == h && !redo.Has(h) {
			sel = base.PerHead[bi] // a kept head beyond the change's reach
		} else {
			if b == nil {
				b = coverage.NewBuilder(gLive, repaired, base.Mode)
			}
			sel = loop.scr.selection(b.OfScratch(h, &loop.cov, &loop.asm), nil, nil, opts)
			st.Reselected++
			tr.Repair(h, len(sel.Gateways))
		}
		static.PerHead = append(static.PerHead, sel)
		for _, v := range sel.Gateways {
			static.Nodes.Add(v)
		}
	}

	mRepairs.Inc()
	mRepairTracked.Add(int64(st.Tracked))
	mRepairReselects.Add(int64(st.Reselected))
	return repaired, static, st, nil
}

// wavefront counts the live nodes that a round-by-round replay of the
// election would re-run to turn the baseline clustering base into next,
// the election of the surviving graph; the replay in replay_test.go is
// the reference it is checked against.
//
// A round has two moments: heads declare, then candidates join. Number
// them 2r-1 and 2r, so a node decides at 2·When-1 as a head and at 2·When
// as a member. The wave starts with every live flipped node and every live
// neighbor of a flipped node. A node of the wave whose new decision departs
// from its baseline one (a different moment) changes what its neighbors
// see from the earlier of the two moments on; every live neighbor the
// baseline still had undecided then joins the wave. Neighbors decided
// before it made that decision on a view the change had not reached.
func wavefront(g *graph.Graph, base, next *cluster.Clustering, changed []int, isUp func(int) bool) int {
	if len(changed) == 0 {
		return 0
	}
	decided := func(c *cluster.Clustering, v int) int {
		if c.Head[v] == v {
			return 2*c.When[v] - 1
		}
		return 2 * c.When[v]
	}
	inWave := make([]bool, g.N())
	var wave []int
	join := func(v int) {
		if !inWave[v] && isUp(v) {
			inWave[v] = true
			wave = append(wave, v)
		}
	}
	for _, v := range changed {
		join(v)
		for _, u := range g.Neighbors(v) {
			join(int(u))
		}
	}
	for i := 0; i < len(wave); i++ {
		v := wave[i]
		was, now := decided(base, v), decided(next, v)
		if was == now {
			continue
		}
		from := min(was, now)
		for _, u := range g.Neighbors(v) {
			if decided(base, int(u)) > from {
				join(int(u))
			}
		}
	}
	return len(wave)
}

// hopBall collects every node within depth hops (in the surviving graph)
// of the given seeds.
func hopBall(g *graph.Graph, seeds []int, depth int, isUp func(int) bool) *graph.Bitset {
	n := g.N()
	ball := graph.NewBitset(n)
	dist := make([]int, n)
	queue := make([]int, 0, len(seeds))
	for _, v := range seeds {
		if !ball.Has(v) {
			ball.Add(v)
			dist[v] = 0
			queue = append(queue, v)
		}
	}
	// Dead nodes enter only as seeds: they expand to their live neighbors
	// (the endpoints of the removed edges) and the walk continues through
	// live nodes alone.
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		if dist[v] == depth {
			continue
		}
		for _, u32 := range g.Neighbors(v) {
			u := int(u32)
			if !isUp(u) || ball.Has(u) {
				continue
			}
			ball.Add(u)
			dist[u] = dist[v] + 1
			queue = append(queue, u)
		}
	}
	return ball
}

// liveGraph builds the surviving graph: g with every down node isolated.
// Filtering g's sorted, symmetric rows keeps them sorted and symmetric, so
// they go to RenewCSR as they are.
func liveGraph(g *graph.Graph, isUp func(int) bool) *graph.Graph {
	n := g.N()
	off := make([]int32, n+1)
	flat := make([]int32, 0, 2*g.M())
	for v := 0; v < n; v++ {
		if isUp(v) {
			for _, u := range g.Neighbors(v) {
				if isUp(int(u)) {
					flat = append(flat, u)
				}
			}
		}
		off[v+1] = int32(len(flat))
	}
	live := new(graph.Graph)
	live.RenewCSR(off, flat)
	return live
}
