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
	// Tracked counts the nodes whose election decision was replayed (the
	// re-election wavefront; everyone else kept the baseline decision).
	Tracked int
	// Rehomed counts live nodes whose head assignment changed.
	Rehomed int
	// Reselected counts the clusterheads whose gateway selection was redone.
	Reselected int
}

// Repair localizes backbone recovery after a liveness change: given the
// baseline clustering cl and static backbone base — valid for the liveness
// predicate wasUp — it produces the clustering and backbone of the
// surviving graph under isUp, re-running the lowest-ID election and the
// greedy gateway selection only where the change can propagate.
//
// The election replay exploits the round-synchronous structure: cl.When
// records the round each node decided in, so untracked nodes replay their
// baseline behavior (candidate until When[v], then head or member), while
// nodes whose neighborhood changed are re-run live. Whenever a re-run
// node's externally visible state (candidacy, head declaration) diverges
// from the baseline at some round, its undecided neighbors join the
// re-run before the divergence can influence them — mid-round for phase-1
// divergences, which phase 2 of the same round already observes. The merged
// outcome is identical to a from-scratch election on the surviving graph.
//
// Conventions: the returned clustering covers all of g's nodes — a dead
// node is recorded as an isolated singleton head (exactly what a fresh
// election on the surviving graph produces), so repaired clusterings chain
// through subsequent Repair calls as new baselines. The returned Static
// contains live nodes only. cl must carry When (an Elect-produced
// clustering under lowest-ID priority); cl' from Repair always does.
func Repair(g *graph.Graph, cl *cluster.Clustering, base *Static, wasUp, isUp func(int) bool, opts Options, tr *obs.Tracer) (*cluster.Clustering, *Static, *RepairStats, error) {
	n := g.N()
	if len(cl.Head) != n {
		return nil, nil, nil, fmt.Errorf("backbone: clustering covers %d nodes, graph has %d", len(cl.Head), n)
	}
	if cl.When == nil {
		return nil, nil, nil, fmt.Errorf("backbone: repair needs an election-produced clustering (When is nil)")
	}
	st := &RepairStats{}

	// The liveness diff seeds the wavefront: every flipped node, plus the
	// live neighbors whose election view it changes.
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

	newHead := append([]int(nil), cl.Head...)
	newWhen := append([]int(nil), cl.When...)
	if len(changed) > 0 {
		if err := reElect(g, cl, changed, isUp, newHead, newWhen, st); err != nil {
			return nil, nil, nil, err
		}
	}

	// Assemble the repaired clustering (dead nodes as singleton heads).
	heads := make([]int, 0, len(cl.Heads))
	members := make(map[int][]int)
	rounds := 0
	for v := 0; v < n; v++ {
		if newHead[v] == v {
			heads = append(heads, v)
		}
		if newWhen[v] > rounds {
			rounds = newWhen[v]
		}
		members[newHead[v]] = append(members[newHead[v]], v)
		if isUp(v) && newHead[v] != cl.Head[v] {
			st.Rehomed++
		}
	}
	repaired := &cluster.Clustering{Head: newHead, Heads: heads, Members: members, Rounds: rounds, When: newWhen}

	// Gateway re-selection is bounded by a 3-hop ball around every node the
	// coverage sets can see differently: liveness flips and affiliation
	// changes. Heads outside the ball reuse their baseline selection.
	dirty := changed
	for v := 0; v < n; v++ {
		if newHead[v] != cl.Head[v] {
			dirty = append(dirty, v)
		}
	}
	redo := hopBall(g, dirty, 3, isUp)

	gLive := liveGraph(g, isUp)
	var b *coverage.Builder
	var loop selStrip // reselections refill one coverage value and scratch
	static := &Static{
		Mode:    base.Mode,
		Nodes:   make(map[int]bool, len(base.Nodes)),
		PerHead: make(map[int]Selection, len(heads)),
	}
	for _, h := range heads {
		if !isUp(h) {
			continue
		}
		static.Heads = append(static.Heads, h)
		static.Nodes[h] = true
		sel, ok := base.PerHead[h]
		if !ok || redo.Has(h) {
			if b == nil {
				b = coverage.NewBuilder(gLive, repaired, base.Mode)
			}
			sel = loop.scr.selection(b.OfScratch(h, &loop.cov, &loop.asm), nil, nil, opts)
			st.Reselected++
			tr.Repair(h, len(sel.Gateways))
		}
		static.PerHead[h] = sel
		for _, v := range sel.Gateways {
			static.Nodes[v] = true
		}
	}

	mRepairs.Inc()
	mRepairTracked.Add(int64(st.Tracked))
	mRepairReselects.Add(int64(st.Reselected))
	return repaired, static, st, nil
}

// reElect replays the round-synchronous lowest-ID election on the
// surviving graph, tracking only the nodes the change reaches. It writes
// the merged outcome into newHead/newWhen (pre-seeded with the baseline).
func reElect(g *graph.Graph, cl *cluster.Clustering, changed []int, isUp func(int) bool, newHead, newWhen []int, st *RepairStats) error {
	n := g.N()
	const (
		sCand uint8 = iota
		sHead
		sMember
	)
	tracked := make([]bool, n)
	state := make([]uint8, n)
	var active []int

	// track adds v to the re-run. During phase 2 the additions go through
	// deferred instead of active: the phase-2 loop compacts active in place,
	// so appending to it mid-loop would let the compaction drop the new
	// entries — and semantically a node tracked in phase 2 of round r was
	// still a candidate when the round ended, so its first re-run action is
	// phase 1 of round r+1 anyway.
	trackTo := &active
	track := func(v int) {
		if tracked[v] || !isUp(v) {
			return
		}
		tracked[v] = true
		state[v] = sCand
		*trackTo = append(*trackTo, v)
		st.Tracked++
	}

	// Seed: dead nodes become singleton heads outright; recovered nodes and
	// the live neighbors of every flipped node re-run from round 1.
	for _, v := range changed {
		if !isUp(v) {
			newHead[v], newWhen[v] = v, 1
		} else {
			track(v)
		}
		for _, u := range g.Neighbors(v) {
			track(u)
		}
	}

	// trackAt adds u to the re-run mid-election: only if the baseline still
	// has u as a candidate at the tracking moment — afterPhase1 of round r,
	// or at the end of round r. Nodes the baseline already decided made
	// that decision on information the re-run has not altered.
	trackAt := func(u, r int, afterPhase1 bool) {
		if tracked[u] || !isUp(u) {
			return
		}
		stillCandidate := cl.When[u] > r ||
			(afterPhase1 && cl.When[u] == r && cl.Head[u] != u)
		if stillCandidate {
			track(u)
		}
	}
	trackNeighborsAt := func(v, r int, afterPhase1 bool) {
		for _, u := range g.Neighbors(v) {
			trackAt(u, r, afterPhase1)
		}
	}

	// Baseline replay predicates for untracked nodes.
	baseCandidateAt := func(u, r int) bool { return cl.When[u] >= r }
	baseHeadAt := func(u, r int) bool { return cl.Head[u] == u && cl.When[u] <= r }

	var declared []int
	maxRounds := cl.Rounds + n + 1
	for r := 1; len(active) > 0; r++ {
		if r > maxRounds {
			return fmt.Errorf("backbone: repair election did not converge after %d rounds", r-1)
		}
		// Phase 1: simultaneous declarations among re-run candidates.
		declared = declared[:0]
		for _, v := range active {
			wins := true
			for _, u := range g.Neighbors(v) {
				if !isUp(u) {
					continue
				}
				cand := state[u] == sCand
				if !tracked[u] {
					cand = baseCandidateAt(u, r)
				}
				if cand && u < v {
					wins = false
					break
				}
			}
			if wins {
				declared = append(declared, v)
			}
		}
		for _, v := range declared {
			state[v] = sHead
			newHead[v], newWhen[v] = v, r
			if !(cl.Head[v] == v && cl.When[v] == r) {
				trackNeighborsAt(v, r, true) // declared where the baseline did not
			}
		}
		for _, v := range active {
			if state[v] == sCand && cl.Head[v] == v && cl.When[v] == r {
				trackNeighborsAt(v, r, true) // baseline declared here, the re-run did not
			}
		}
		// Phase 2: candidates adjacent to a head join the lowest-ID one.
		// Nodes tracked after phase 1 are already on the active list and
		// take part; head states are stable throughout the phase. Nodes the
		// phase-2 propagations track are deferred to the end of the round.
		var deferred []int
		trackTo = &deferred
		out := active[:0]
		for _, v := range active {
			if state[v] != sCand {
				continue
			}
			best := -1
			for _, u := range g.Neighbors(v) {
				if !isUp(u) {
					continue
				}
				isHead := state[u] == sHead
				if !tracked[u] {
					isHead = baseHeadAt(u, r)
				}
				if isHead && (best == -1 || u < best) {
					best = u
				}
			}
			if best != -1 {
				state[v] = sMember
				newHead[v], newWhen[v] = best, r
				if cl.When[v] != r {
					trackNeighborsAt(v, r, false) // candidacy length changed
				}
				continue
			}
			if cl.When[v] == r && cl.Head[v] != v {
				trackNeighborsAt(v, r, false) // baseline joined here, the re-run did not
			}
			out = append(out, v)
		}
		active = append(out, deferred...)
		trackTo = &active
	}
	return nil
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
		for _, u := range g.Neighbors(v) {
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
	off := make([]int, n+1)
	flat := make([]int, 0, 2*g.M())
	for v := 0; v < n; v++ {
		if isUp(v) {
			for _, u := range g.Neighbors(v) {
				if isUp(u) {
					flat = append(flat, u)
				}
			}
		}
		off[v+1] = len(flat)
	}
	live := new(graph.Graph)
	live.RenewCSR(off, flat)
	return live
}
