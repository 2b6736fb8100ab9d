package backbone

import (
	"fmt"
	"slices"
	"testing"

	"clustercast/internal/cluster"
	"clustercast/internal/graph"
)

// replay re-runs the round-synchronous lowest-ID election on the surviving
// graph under isUp, starting from the baseline clustering cl (valid under
// wasUp) and tracking only the nodes the liveness change reaches: an
// untracked node replays its baseline behavior (candidate until When[v],
// then head or member), a tracked one is re-run live. Whenever a tracked
// node's visible state (candidacy, head declaration) departs from the
// baseline at some round, its neighbors that the baseline still has
// undecided join the re-run before the departure can influence them —
// mid-round for phase-1 departures, which phase 2 of the same round
// already observes. It returns the merged Head and When, with dead nodes
// as singleton heads of round 1, and the number of nodes it tracked: the
// reference for Repair's clustering and RepairStats.Tracked.
func replay(g *graph.Graph, cl *cluster.Clustering, wasUp, isUp func(int) bool) (head, when []int, tracked int, err error) {
	n := g.N()
	head = append([]int(nil), cl.Head...)
	when = append([]int(nil), cl.When...)
	const (
		sCand uint8 = iota
		sHead
		sMember
	)
	inRun := make([]bool, n)
	state := make([]uint8, n)
	var active []int

	// track adds v to the re-run. During phase 2 the additions go through
	// deferred instead of active: the phase-2 loop compacts active in place,
	// so appending to it mid-loop would let the compaction drop the new
	// entries — and a node tracked in phase 2 of round r was still a
	// candidate when the round ended, so its first re-run action is phase 1
	// of round r+1 anyway.
	trackTo := &active
	track := func(v int) {
		if inRun[v] || !isUp(v) {
			return
		}
		inRun[v] = true
		state[v] = sCand
		*trackTo = append(*trackTo, v)
		tracked++
	}

	// Seed: dead nodes become singleton heads outright; recovered nodes and
	// the live neighbors of every flipped node re-run from round 1.
	for v := 0; v < n; v++ {
		if wasUp(v) == isUp(v) {
			continue
		}
		if !isUp(v) {
			head[v], when[v] = v, 1
		} else {
			track(v)
		}
		for _, u := range g.Neighbors(v) {
			track(int(u))
		}
	}

	// trackAt adds u to the re-run mid-election: only if the baseline still
	// has u as a candidate at the tracking moment — afterPhase1 of round r,
	// or at the end of round r. Nodes the baseline already decided made
	// that decision on information the re-run has not altered.
	trackAt := func(u, r int, afterPhase1 bool) {
		if inRun[u] || !isUp(u) {
			return
		}
		if cl.When[u] > r || afterPhase1 && cl.When[u] == r && cl.Head[u] != u {
			track(u)
		}
	}
	trackNeighborsAt := func(v, r int, afterPhase1 bool) {
		for _, u := range g.Neighbors(v) {
			trackAt(int(u), r, afterPhase1)
		}
	}

	// Baseline replay predicates for untracked nodes.
	baseCandidateAt := func(u, r int) bool { return cl.When[u] >= r }
	baseHeadAt := func(u, r int) bool { return cl.Head[u] == u && cl.When[u] <= r }

	var declared []int
	maxRounds := cl.Rounds + n + 1
	for r := 1; len(active) > 0; r++ {
		if r > maxRounds {
			return nil, nil, 0, fmt.Errorf("replay did not converge after %d rounds", r-1)
		}
		// Phase 1: simultaneous declarations among re-run candidates.
		declared = declared[:0]
		for _, v := range active {
			wins := true
			for _, u32 := range g.Neighbors(v) {
				u := int(u32)
				if !isUp(u) {
					continue
				}
				cand := state[u] == sCand
				if !inRun[u] {
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
			head[v], when[v] = v, r
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
		// phase-2 departures track are deferred to the end of the round.
		var deferred []int
		trackTo = &deferred
		out := active[:0]
		for _, v := range active {
			if state[v] != sCand {
				continue
			}
			best := -1
			for _, u32 := range g.Neighbors(v) {
				u := int(u32)
				if !isUp(u) {
					continue
				}
				isHead := state[u] == sHead
				if !inRun[u] {
					isHead = baseHeadAt(u, r)
				}
				if isHead && (best == -1 || u < best) {
					best = u
				}
			}
			if best != -1 {
				state[v] = sMember
				head[v], when[v] = best, r
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
	return head, when, tracked, nil
}

// requireReplayAgrees holds one Repair call's clustering and wavefront to
// replay of the same transition: Head, Heads, When, Rounds and Tracked.
func requireReplayAgrees(t testing.TB, g *graph.Graph, cl *cluster.Clustering, wasUp, isUp func(int) bool, repaired *cluster.Clustering, st *RepairStats) {
	t.Helper()
	head, when, tracked, err := replay(g, cl, wasUp, isUp)
	if err != nil {
		t.Fatal(err)
	}
	var heads []int
	rounds := 0
	for v, h := range head {
		if h == v {
			heads = append(heads, v)
		}
		rounds = max(rounds, when[v])
	}
	if !slices.Equal(repaired.Head, head) {
		t.Fatalf("Head diverges from the replay:\n got %v\nwant %v", repaired.Head, head)
	}
	if !slices.Equal(repaired.Heads, heads) {
		t.Fatalf("Heads diverge from the replay:\n got %v\nwant %v", repaired.Heads, heads)
	}
	if !slices.Equal(repaired.When, when) {
		t.Fatalf("When diverges from the replay:\n got %v\nwant %v", repaired.When, when)
	}
	if repaired.Rounds != rounds {
		t.Fatalf("Rounds = %d, replay %d", repaired.Rounds, rounds)
	}
	if st.Tracked != tracked {
		t.Fatalf("Tracked = %d, replay tracked %d", st.Tracked, tracked)
	}
}
