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
	"cmp"
	"fmt"
	"slices"

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
// slices instead of maps. The CH_HOP1/CH_HOP2 reports, every head's
// assembled coverage and its connector lists are carved from run-wide
// arenas, and one selection workspace serves every head, so a run
// allocates O(n + m) bytes. The message rounds this generates — contents,
// per-type counts, round count, and distinct active senders per round —
// are those of the round-synchronous protocol, which the tests keep as
// the reference (runOracle): O(messages) worklist updates replace its
// O(rounds·n) scans.
func Run(g *graph.Graph, mode coverage.Mode) *Outcome {
	n := g.N()
	out := &Outcome{Head: make([]int, n)} // the rest is presized once its sizes are known
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
	// since neighbor lists are sorted). The reports share one CSR arena,
	// v's being hop1[hop1Off[v]:hop1Off[v+1]]; every neighbor of a head is
	// a non-head, so the arena holds exactly the heads' degree sum.
	hop1Off := make([]int, n+1)
	heads, headDeg := 0, 0
	for v := 0; v < n; v++ {
		if state[v] == headState {
			heads++
			headDeg += g.Degree(v)
		}
	}
	nonHeads := n - heads
	hop1 := make([]int32, 0, headDeg)
	for v := 0; v < n; v++ {
		if state[v] != headState {
			for _, u := range g.Neighbors(v) {
				if state[u] == headState {
					hop1 = append(hop1, int32(u))
				}
			}
		}
		hop1Off[v+1] = len(hop1)
	}
	round(CHHop1, nonHeads, nonHeads)
	// CH_HOP1 processing: each non-head v builds its 2-hop entries w →
	// min relay from its non-head neighbors' reports, skipping heads
	// adjacent to v itself, and sorts them by w once for every head that
	// reads them. The entries share a second CSR arena, hop2/hop2Off.
	// Heads stash their neighbors' reports (in DES form: the arenas are
	// read directly at assembly).
	hop2Off := make([]int, n+1)
	hop2 := make([]hop2Entry, 0, n)
	adjStamp := make([]uint32, n)
	entryAt := make([]uint32, n)
	entrySlot := make([]int, n) // index of w's entry in hop2, valid when entryAt[w] is current
	var mark uint32
	// entry records w reachable through relay u in the current node's
	// list, keeping the lowest relay.
	entry := func(w, u int32) {
		if entryAt[w] != mark {
			entryAt[w] = mark
			entrySlot[w] = len(hop2)
			hop2 = append(hop2, hop2Entry{w: w, r: u})
		} else if e := &hop2[entrySlot[w]]; u < e.r {
			e.r = u
		}
	}
	for v := 0; v < n; v++ {
		if state[v] != headState {
			mark++
			for _, w := range hop1[hop1Off[v]:hop1Off[v+1]] {
				adjStamp[w] = mark
			}
			first := len(hop2)
			for _, u := range g.Neighbors(v) {
				if state[u] == headState {
					continue // heads do not send CH_HOP1
				}
				switch mode {
				case coverage.Hop25:
					// Only the sender's own clusterhead generates an entry.
					if w := ownHead[u]; w >= 0 && adjStamp[w] != mark {
						entry(w, int32(u))
					}
				case coverage.Hop3:
					for _, w := range hop1[hop1Off[u]:hop1Off[u+1]] {
						if adjStamp[w] != mark {
							entry(w, int32(u))
						}
					}
				}
			}
			slices.SortFunc(hop2[first:], func(a, b hop2Entry) int { return cmp.Compare(a.w, b.w) })
		}
		hop2Off[v+1] = len(hop2)
	}
	// CH_HOP2: every non-head transmits its entries; heads stash them.
	round(CHHop2, nonHeads, nonHeads)

	// ---- Phase D: gateway selection and GATEWAY designation. --------------
	// One selection workspace and one coverage arena serve every head.
	isGateway := make([]bool, n)
	type gwMsg struct {
		from     int32
		ttl      int32
		selected []int
	}
	arena := newCovArena(n, heads, hop1, hop1Off, hop2, hop2Off)
	var sel backbone.Workspace
	queue := make([]gwMsg, 0, heads)
	forwards := 0
	out.Coverage = make(map[int]*coverage.Coverage, heads)
	out.PerHead = make(map[int]backbone.Selection, heads)
	for h := 0; h < n; h++ {
		if state[h] != headState {
			continue
		}
		cov := arena.assemble(g, h, mode)
		out.Coverage[h] = cov
		s := sel.Select(cov, backbone.Options{})
		out.PerHead[h] = s
		queue = append(queue, gwMsg{from: int32(h), ttl: 2, selected: s.Gateways})
		forwards += len(s.Gateways)
	}
	sentAt := make([]uint32, n)
	var sentGen uint32
	next := make([]gwMsg, 0, forwards) // a selected gateway forwards its head's message once
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
			// Neighbors and the selection are both ascending: one merge
			// walk finds the selected receivers.
			rest := m.selected
			for _, v := range g.Neighbors(int(m.from)) {
				for len(rest) > 0 && rest[0] < v {
					rest = rest[1:]
				}
				if len(rest) == 0 {
					break
				}
				if rest[0] != v {
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
	members := 0
	for v := 0; v < n; v++ {
		if state[v] == headState || isGateway[v] {
			members++
		}
	}
	out.Backbone = make(map[int]bool, members)
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

// hop2Entry is one CH_HOP2 report line in the run's arena: clusterhead w
// reachable through relay r.
type hop2Entry struct{ w, r int32 }

// covArena assembles every head's coverage.Coverage from its neighbors'
// CH_HOP1 (hop1) and CH_HOP2 (hop2) reports, mirroring
// coverage.Builder.Of: C², C³ and the connector layout. The Coverage
// values, their member lists and their connector lists are carved from
// run-wide slices instead of allocated per head and per neighbor, each
// carve capped at its length. A carve must never move, so every slice is
// presized to what the run can carve: with a(v) the heads adjacent to
// non-head v, at most Σ a(v)·(a(v)−1) direct entries, Σ a(v)·|hop2(v)|
// indirect entries and Σ a(v) connectors. The member lists have no tight
// bound; they fill chunks, and a list that does not fit in the current
// chunk starts a new one.
type covArena struct {
	hop1    []int32
	hop1Off []int
	hop2    []hop2Entry
	hop2Off []int

	covs    []coverage.Coverage
	sets    []graph.SparseSet // C² and C³ of the i-th head at 2i and 2i+1
	members []int             // the current chunk of the sets' member lists
	conns   []coverage.Connector
	direct  []int
	ind     []coverage.Hop2Entry
	ids     []int    // the member list in progress
	dirOff  []int    // direct offsets per neighbor of the head in progress
	mark    []uint32 // epoch stamps: w ∈ C² or C³ of the head in progress
	epoch   uint32
}

func newCovArena(n, heads int, hop1 []int32, hop1Off []int, hop2 []hop2Entry, hop2Off []int) *covArena {
	direct, ind := 0, 0
	for v := 0; v < n; v++ {
		a := hop1Off[v+1] - hop1Off[v]
		direct += a * (a - 1)
		ind += a * (hop2Off[v+1] - hop2Off[v])
	}
	return &covArena{
		hop1: hop1, hop1Off: hop1Off, hop2: hop2, hop2Off: hop2Off,
		covs:   make([]coverage.Coverage, 0, heads),
		sets:   make([]graph.SparseSet, 2*heads),
		conns:  make([]coverage.Connector, 0, len(hop1)),
		direct: make([]int, 0, direct),
		ind:    make([]coverage.Hop2Entry, 0, ind),
		mark:   make([]uint32, n),
	}
}

// carve returns s[lo:hi] capped at its length, or nil when empty: an
// empty list is nil, as in the round-synchronous reference.
func carve[T any](s []T, lo, hi int) []T {
	if lo == hi {
		return nil
	}
	return s[lo:hi:hi]
}

// keep sorts the member list in progress and returns it carved from the
// member chunks.
func (a *covArena) keep() []int {
	ids := a.ids
	a.ids = a.ids[:0]
	if len(ids) == 0 {
		return nil
	}
	slices.Sort(ids)
	if cap(a.members)-len(a.members) < len(ids) {
		a.members = make([]int, 0, max(len(ids), len(a.hop1)))
	}
	from := len(a.members)
	a.members = append(a.members, ids...)
	return carve(a.members, from, len(a.members))
}

// assemble builds head h's coverage, the next one the arena holds.
func (a *covArena) assemble(g *graph.Graph, h int, mode coverage.Mode) *coverage.Coverage {
	n := len(a.mark)
	i := len(a.covs)
	a.covs = append(a.covs, coverage.Coverage{Head: h, Mode: mode, C2: &a.sets[2*i], C3: &a.sets[2*i+1]})
	cov := &a.covs[i]
	ep2, ep3 := a.epoch+1, a.epoch+2
	a.epoch += 2
	neighbors := g.Neighbors(h)
	// First pass fills C² completely (the C³ pass filters against it).
	// CH_HOP1 lists are ascending, so each connector's slice is sorted.
	a.dirOff = a.dirOff[:0]
	for _, v := range neighbors {
		a.dirOff = append(a.dirOff, len(a.direct))
		for _, w := range a.hop1[a.hop1Off[v]:a.hop1Off[v+1]] {
			if int(w) == h {
				continue
			}
			a.direct = append(a.direct, int(w))
			if a.mark[w] != ep2 {
				a.mark[w] = ep2
				a.ids = append(a.ids, int(w))
			}
		}
	}
	a.dirOff = append(a.dirOff, len(a.direct))
	cov.C2.ResetSorted(n, a.keep())
	conns := len(a.conns)
	for j, v := range neighbors {
		first := len(a.ind)
		// CH_HOP2 lists are sorted by clusterhead, and so is every
		// connector's filtered slice.
		for _, e := range a.hop2[a.hop2Off[v]:a.hop2Off[v+1]] {
			if int(e.w) == h || a.mark[e.w] == ep2 {
				continue
			}
			a.ind = append(a.ind, coverage.Hop2Entry{W: int(e.w), R: int(e.r)})
			if a.mark[e.w] != ep3 {
				a.mark[e.w] = ep3
				a.ids = append(a.ids, int(e.w))
			}
		}
		d := carve(a.direct, a.dirOff[j], a.dirOff[j+1])
		in := carve(a.ind, first, len(a.ind))
		if d == nil && in == nil {
			continue
		}
		a.conns = append(a.conns, coverage.Connector{V: v, Direct: d, Indirect: in})
	}
	cov.C3.ResetSorted(n, a.keep())
	cov.Conns = carve(a.conns, conns, len(a.conns))
	return cov
}

// RunDES is Run.
//
// Deprecated: the event-driven engine is the only wire-protocol engine;
// call Run.
func RunDES(g *graph.Graph, mode coverage.Mode) *Outcome {
	return Run(g, mode)
}
