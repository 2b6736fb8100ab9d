// Package sim runs the paper's *actual wire protocol* for constructing the
// cluster-based static backbone, as a round-synchronous message-passing
// simulation: HELLO neighbor discovery, lowest-ID clusterhead election with
// CLUSTER_HEAD / NON_CLUSTER_HEAD announcements, the CH_HOP1 / CH_HOP2
// coverage exchange, and GATEWAY designation messages with TTL 2.
//
// Unlike the centralized constructions in internal/cluster, internal/
// coverage and internal/backbone — which compute the same objects directly
// from the graph — this package exercises the distributed algorithm as a
// real node would run it, with every node acting only on information
// carried by received messages. It exists for two reasons:
//
//  1. Validation: the distributed outcome must agree exactly with the
//     centralized one (tested in sim_test.go).
//  2. Measurement: the paper's §4 claims O(n) communication complexity
//     ("message-optimal") and O(n) time; the simulator counts messages by
//     type and rounds so the claim can be reproduced (ABL-MSG).
//
// A transmission is a local broadcast: a message sent in round t is
// received by all neighbors in round t+1. Run executes the protocol
// event-driven, touching only nodes with pending work; it produces
// exactly the message rounds and outcome of the literal round-by-round
// loop, which the tests keep as the reference.
package sim

import (
	"fmt"
	"sort"

	"clustercast/internal/backbone"
	"clustercast/internal/coverage"
	"clustercast/internal/graph"
	"clustercast/internal/obs"
)

// MsgType enumerates the protocol's message types.
type MsgType uint8

// Message types, in protocol order.
const (
	Hello MsgType = iota
	ClusterHead
	NonClusterHead
	CHHop1
	CHHop2
	Gateway
	numMsgTypes
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case Hello:
		return "HELLO"
	case ClusterHead:
		return "CLUSTER_HEAD"
	case NonClusterHead:
		return "NON_CLUSTER_HEAD"
	case CHHop1:
		return "CH_HOP1"
	case CHHop2:
		return "CH_HOP2"
	case Gateway:
		return "GATEWAY"
	default:
		return "UNKNOWN"
	}
}

// Counters tallies protocol traffic.
type Counters struct {
	// PerType counts transmissions by message type.
	PerType [numMsgTypes]int
	// Rounds is the number of synchronous rounds until quiescence.
	Rounds int
	// ActivePerRound records, round by round (indexed as Rounds-1), how
	// many distinct nodes transmitted in that round. With n nodes, the
	// per-round idle fraction 1 − active/n is the work a round-synchronous
	// simulator wastes scanning silent nodes — the measured quantity the
	// event-driven core's savings are validated against (ABL-MSG).
	ActivePerRound []int
}

// MeanActive returns the mean number of distinct transmitting nodes per
// counted round (0 when no rounds ran).
func (c *Counters) MeanActive() float64 {
	if len(c.ActivePerRound) == 0 {
		return 0
	}
	t := 0
	for _, a := range c.ActivePerRound {
		t += a
	}
	return float64(t) / float64(len(c.ActivePerRound))
}

// Total returns the total number of transmissions.
func (c *Counters) Total() int {
	t := 0
	for _, v := range c.PerType {
		t += v
	}
	return t
}

// String renders a compact per-type summary.
func (c *Counters) String() string {
	s := fmt.Sprintf("total=%d rounds=%d", c.Total(), c.Rounds)
	for t := MsgType(0); t < numMsgTypes; t++ {
		s += fmt.Sprintf(" %s=%d", t, c.PerType[t])
	}
	return s
}

// Outcome is the result of running the construction protocol.
type Outcome struct {
	// Head[v] is v's clusterhead (itself for heads).
	Head []int
	// Heads lists clusterheads ascending.
	Heads []int
	// Backbone is the static backbone membership (heads + gateways).
	Backbone map[int]bool
	// PerHead records each head's gateway selection.
	PerHead map[int]backbone.Selection
	// Coverage records each head's assembled coverage set (C², C³).
	Coverage map[int]*coverage.Coverage
	// Counters tallies the protocol traffic.
	Counters Counters
}

// Worklist-election health counters, folded once per Run (locals in
// the loop, like the wheel's per-run stats). rounds/worklist together
// measure the O(messages) claim: worklist_nodes ~ n per run regardless of
// how many declaration rounds the ID structure forces.
var (
	mElectionRounds = obs.NewCounter("sim.des_election_rounds") // declaration/join iterations
	mWorklistNodes  = obs.NewCounter("sim.des_worklist_nodes")  // ready-worklist entries examined
)

// Run executes the full construction protocol on g under the given
// coverage mode and returns the distributed outcome.
//
// The protocol runs event-driven: each phase touches only the nodes
// with pending work instead of scanning all n node state machines every
// round. The election loop runs on a ready worklist driven by per-node
// "smaller undecided neighbor" counters (a NON_CLUSTER_HEAD delivery
// decrements its larger neighbors; hitting zero schedules the
// declaration), and the coverage and gateway phases walk dense per-node
// slices instead of maps. The message rounds this generates — contents,
// per-type counts, round count, and distinct active senders per round —
// are those of the round-synchronous protocol, which the tests keep as
// the reference (runOracle): O(messages) worklist updates replace its
// O(rounds·n) scans.
func Run(g *graph.Graph, mode coverage.Mode) *Outcome {
	n := g.N()
	out := &Outcome{
		Head:     make([]int, n),
		Backbone: make(map[int]bool),
		PerHead:  make(map[int]backbone.Selection),
		Coverage: make(map[int]*coverage.Coverage),
	}
	var counters Counters
	// round tallies one delivered round of cnt messages from active
	// distinct senders (counted only when nonempty).
	round := func(typ MsgType, cnt, active int) {
		if cnt == 0 {
			return
		}
		counters.PerType[typ] += cnt
		counters.Rounds++
		counters.ActivePerRound = append(counters.ActivePerRound, active)
	}

	// ---- Phase A: HELLO. All n nodes transmit once; neighbor lists are
	// the graph's (sorted, as the protocol's inboxes are).
	round(Hello, n, n)

	// ---- Phase B: election on a ready worklist. ---------------------------
	const (
		candidate = uint8(0)
		headState = uint8(1)
		memberSt  = uint8(2)
	)
	state := make([]uint8, n)
	ownHead := make([]int32, n)
	smaller := make([]int32, n) // smaller-ID neighbors not yet known members
	ready := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		ownHead[v] = -1
		c := int32(0)
		for _, u := range g.Neighbors(v) {
			if u < v {
				c++
			}
		}
		smaller[v] = c
		if c == 0 {
			ready = append(ready, int32(v))
		}
	}
	undecided := n
	offerAt := make([]uint32, n) // stamp: bestOffer[v] is current this iteration
	bestOffer := make([]int32, n)
	offered := make([]int32, 0, 64)
	newHeads := make([]int32, 0, 64)
	newMembers := make([]int32, 0, 64)
	var iter uint32
	var worklistSeen int64
	for undecided > 0 {
		iter++
		worklistSeen += int64(len(ready))
		// Declaration round: every ready candidate wins (its smaller
		// neighbors are all members). Ready entries that joined in the
		// meantime are skipped for good.
		newHeads = newHeads[:0]
		for _, v32 := range ready {
			v := int(v32)
			if state[v] == candidate && smaller[v] == 0 {
				state[v] = headState
				ownHead[v] = v32
				newHeads = append(newHeads, v32)
			}
		}
		ready = ready[:0]
		round(ClusterHead, len(newHeads), len(newHeads))
		undecided -= len(newHeads)
		// Join round: candidates hearing a declaration join the smallest
		// declaring neighbor and announce NON_CLUSTER_HEAD.
		offered = offered[:0]
		for _, h := range newHeads {
			for _, v := range g.Neighbors(int(h)) {
				if state[v] != candidate {
					continue
				}
				if offerAt[v] != iter {
					offerAt[v] = iter
					bestOffer[v] = h
					offered = append(offered, int32(v))
				} else if h < bestOffer[v] {
					bestOffer[v] = h
				}
			}
		}
		newMembers = newMembers[:0]
		for _, v32 := range offered {
			v := int(v32)
			state[v] = memberSt
			ownHead[v] = bestOffer[v]
			newMembers = append(newMembers, v32)
		}
		round(NonClusterHead, len(newMembers), len(newMembers))
		undecided -= len(newMembers)
		// NON_CLUSTER_HEAD delivery: larger candidate neighbors strike the
		// new member off their smaller-undecided count; at zero they are
		// ready to declare next iteration.
		for _, m := range newMembers {
			for _, u := range g.Neighbors(int(m)) {
				if int32(u) > m && state[u] == candidate {
					smaller[u]--
					if smaller[u] == 0 {
						ready = append(ready, int32(u))
					}
				}
			}
		}
	}
	mElectionRounds.Add(int64(iter))
	mWorklistNodes.Add(worklistSeen)

	// ---- Phase C: CH_HOP1 / CH_HOP2 coverage exchange. --------------------
	// CH_HOP1: every non-head broadcasts its adjacent heads (ascending,
	// since neighbor lists are sorted).
	adjHeads := make([][]int32, n)
	nonHeads := 0
	for v := 0; v < n; v++ {
		if state[v] == headState {
			continue
		}
		nonHeads++
		for _, u := range g.Neighbors(v) {
			if state[u] == headState {
				adjHeads[v] = append(adjHeads[v], int32(u))
			}
		}
	}
	round(CHHop1, nonHeads, nonHeads)
	// CH_HOP1 processing: each non-head v builds its 2-hop entries w →
	// min relay from its non-head neighbors' reports, skipping heads
	// adjacent to v itself. Heads stash their neighbors' reports (in DES
	// form: adjHeads is read directly at assembly).
	hop2W := make([][]int32, n)
	hop2R := make([][]int32, n)
	adjStamp := make([]uint32, n)
	entryAt := make([]uint32, n)
	entrySlot := make([]int32, n)
	var mark uint32
	for v := 0; v < n; v++ {
		if state[v] == headState {
			continue
		}
		mark++
		for _, w := range adjHeads[v] {
			adjStamp[w] = mark
		}
		for _, u := range g.Neighbors(v) {
			if state[u] == headState {
				continue // heads do not send CH_HOP1
			}
			switch mode {
			case coverage.Hop25:
				// Only the sender's own clusterhead generates an entry.
				w := ownHead[u]
				if w >= 0 && adjStamp[w] != mark {
					if entryAt[w] != mark {
						entryAt[w] = mark
						entrySlot[w] = int32(len(hop2W[v]))
						hop2W[v] = append(hop2W[v], w)
						hop2R[v] = append(hop2R[v], int32(u))
					} else if int32(u) < hop2R[v][entrySlot[w]] {
						hop2R[v][entrySlot[w]] = int32(u)
					}
				}
			case coverage.Hop3:
				for _, w := range adjHeads[u] {
					if adjStamp[w] == mark {
						continue
					}
					if entryAt[w] != mark {
						entryAt[w] = mark
						entrySlot[w] = int32(len(hop2W[v]))
						hop2W[v] = append(hop2W[v], w)
						hop2R[v] = append(hop2R[v], int32(u))
					} else if int32(u) < hop2R[v][entrySlot[w]] {
						hop2R[v][entrySlot[w]] = int32(u)
					}
				}
			}
		}
	}
	// adjStamp doubles as the entry stamps' universe; separate marks per
	// node prevented cross-talk. CH_HOP2: every non-head transmits its
	// entries; heads stash them.
	round(CHHop2, nonHeads, nonHeads)

	// ---- Phase D: gateway selection and GATEWAY designation. --------------
	isGateway := make([]bool, n)
	type gwMsg struct {
		from     int32
		ttl      int32
		selected []int
	}
	var queue []gwMsg
	for h := 0; h < n; h++ {
		if state[h] != headState {
			continue
		}
		cov := assembleCoverage(g, h, mode, n, state, adjHeads, hop2W, hop2R)
		out.Coverage[h] = cov
		sel := backbone.SelectGateways(cov, nil, nil)
		out.PerHead[h] = sel
		queue = append(queue, gwMsg{from: int32(h), ttl: 2, selected: sel.Gateways})
	}
	sentAt := make([]uint32, n)
	var sentGen uint32
	var next []gwMsg
	for hop := 0; hop < 2 && len(queue) > 0; hop++ {
		sentGen++
		active := 0
		for _, m := range queue {
			if sentAt[m.from] != sentGen {
				sentAt[m.from] = sentGen
				active++
			}
		}
		round(Gateway, len(queue), active)
		next = next[:0]
		for _, m := range queue {
			for _, v := range g.Neighbors(int(m.from)) {
				selected := false
				for _, s := range m.selected {
					if s == v {
						selected = true
						break
					}
				}
				if !selected {
					continue
				}
				isGateway[v] = true
				// A selected gateway forwards each head's GATEWAY message
				// (a gateway can serve several heads), decrementing TTL.
				if m.ttl-1 > 0 {
					next = append(next, gwMsg{from: int32(v), ttl: m.ttl - 1, selected: m.selected})
				}
			}
		}
		queue, next = next, queue
	}

	// ---- Assemble the outcome. -------------------------------------------
	for v := 0; v < n; v++ {
		out.Head[v] = int(ownHead[v])
		if state[v] == headState {
			out.Heads = append(out.Heads, v)
			out.Backbone[v] = true
		}
		if isGateway[v] {
			out.Backbone[v] = true
		}
	}
	out.Counters = counters
	return out
}

// assembleCoverage builds the head's coverage.Coverage from its
// neighbors' CH_HOP1 (adjHeads) and CH_HOP2 (hop2W/hop2R) reports,
// mirroring coverage.Builder.Of: C², C³ and the connector layout.
func assembleCoverage(g *graph.Graph, h int, mode coverage.Mode, n int,
	state []uint8, adjHeads [][]int32, hop2W, hop2R [][]int32) *coverage.Coverage {
	cov := &coverage.Coverage{
		Head: h, Mode: mode,
		C2: graph.NewHybridSet(n), C3: graph.NewHybridSet(n),
	}
	neighbors := g.Neighbors(h)
	// First pass fills C² completely (the C³ pass filters against it).
	direct := make([][]int, len(neighbors))
	for i, v := range neighbors {
		if state[v] == 1 { // a head neighbor sent no CH_HOP1 (cannot occur: no adjacent heads)
			continue
		}
		var d []int
		for _, w := range adjHeads[v] {
			if int(w) == h {
				continue
			}
			cov.C2.Add(int(w))
			d = append(d, int(w))
		}
		direct[i] = d // adjHeads ascending ⇒ already sorted
	}
	for i, v := range neighbors {
		var ind []coverage.Hop2Entry
		for j, w := range hop2W[v] {
			if int(w) == h || cov.C2.Has(int(w)) {
				continue
			}
			cov.C3.Add(int(w))
			ind = append(ind, coverage.Hop2Entry{W: int(w), R: int(hop2R[v][j])})
		}
		sort.Slice(ind, func(a, b int) bool { return ind[a].W < ind[b].W })
		if len(direct[i]) == 0 && len(ind) == 0 {
			continue
		}
		cov.Conns = append(cov.Conns, coverage.Connector{V: v, Direct: direct[i], Indirect: ind})
	}
	return cov
}

// RunDES is Run.
//
// Deprecated: the event-driven engine is the only wire-protocol engine;
// call Run.
func RunDES(g *graph.Graph, mode coverage.Mode) *Outcome {
	return Run(g, mode)
}
