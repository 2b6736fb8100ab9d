// Package sim counts the messages of the paper's wire protocol for
// constructing the cluster-based static backbone: HELLO neighbor
// discovery, lowest-ID clusterhead election with CLUSTER_HEAD /
// NON_CLUSTER_HEAD announcements, the CH_HOP1 / CH_HOP2 coverage
// exchange, and GATEWAY designation messages with TTL 2. The paper's §4
// claims O(n) communication complexity ("message-optimal") and O(n)
// time; Run counts messages by type and rounds so the claim can be
// reproduced (ABL-MSG).
//
// A transmission is a local broadcast: a message sent in round t is
// received by all neighbors in round t+1. Every node of the protocol acts
// only on what it has received, and what it receives is what the
// centralized layers read off the graph, so Run takes each part of the
// outcome from the layer that computes it and counts the rounds that
// carry it:
//
//   - Head, Heads and the CLUSTER_HEAD / NON_CLUSTER_HEAD rounds come
//     from cluster.LowestID, whose When and Rounds are those of the
//     round-synchronous election;
//   - the CH_HOP1 / CH_HOP2 contents and each head's coverage set come
//     from coverage.Builder;
//   - PerHead comes from backbone.Workspace.Select, and Backbone holds
//     the heads and every node a GATEWAY message designates within its
//     two hops.
//
// The tests keep the protocol itself as the message-level reference:
// runOracle runs every node's state machine round by round on the
// messages it receives, Run must match it field by field, and the
// oracle's coverage sets and backbone must match the centralized
// constructions.
package sim

import (
	"fmt"

	"clustercast/internal/backbone"
	"clustercast/internal/cluster"
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
	// simulator wastes scanning silent nodes (the idle-fraction series of
	// ABL-MSG).
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
	// Backbone is the static backbone membership (heads + gateways). It
	// stays a map, unlike the construction layers' bitsets, because
	// pipebench takes its len and checks it with graph.IsCDS.
	Backbone map[int]bool
	// PerHead records each head's gateway selection, in Heads order.
	PerHead []backbone.Selection
	// Counters tallies the protocol traffic.
	Counters Counters
}

// mElectionRounds counts the election's declaration/join iterations,
// folded once per Run.
var mElectionRounds = obs.NewCounter("sim.des_election_rounds")

// Run executes the full construction protocol on g under the given
// coverage mode and returns the distributed outcome with its message
// counts (see the package comment for where each part comes from). The
// rounds it counts — per-type counts, round count and distinct active
// senders per round — are those of the round-synchronous protocol, which
// the tests keep as the reference (runOracle). A run allocates O(n + m)
// bytes: one coverage value and one selection workspace serve every head.
func Run(g *graph.Graph, mode coverage.Mode) *Outcome {
	n := g.N()
	cl := cluster.LowestID(g)
	out := &Outcome{Head: cl.Head, Heads: cl.Heads}
	c := &out.Counters
	// round tallies one delivered round of cnt messages from active
	// distinct senders (counted only when nonempty).
	round := func(typ MsgType, cnt, active int) {
		if cnt == 0 {
			return
		}
		c.PerType[typ] += cnt
		c.Rounds++
		c.ActivePerRound = append(c.ActivePerRound, active)
	}

	// HELLO: all n nodes transmit once.
	round(Hello, n, n)

	// Election: in round r the heads that decided in r announce
	// CLUSTER_HEAD, then the members that joined them announce
	// NON_CLUSTER_HEAD.
	declared := make([]int, cl.Rounds+1)
	joined := make([]int, cl.Rounds+1)
	for v, r := range cl.When {
		if cl.IsHead(v) {
			declared[r]++
		} else {
			joined[r]++
		}
	}
	for r := 1; r <= cl.Rounds; r++ {
		round(ClusterHead, declared[r], declared[r])
		round(NonClusterHead, joined[r], joined[r])
	}
	mElectionRounds.Add(int64(cl.Rounds))

	// CH_HOP1 / CH_HOP2: every non-head reports its adjacent heads, then
	// its 2-hop head entries, one round each.
	heads := len(cl.Heads)
	round(CHHop1, n-heads, n-heads)
	round(CHHop2, n-heads, n-heads)

	// Gateway selection and GATEWAY designation. One coverage value and
	// one selection workspace serve every head.
	b := coverage.NewBuilder(g, cl, mode)
	var (
		cov coverage.Coverage
		asm coverage.AsmScratch
		sel backbone.Workspace
	)
	isGateway := make([]bool, n)
	type gwMsg struct {
		from     int32
		ttl      int32
		selected []int
	}
	queue := make([]gwMsg, 0, heads)
	forwards := 0
	out.PerHead = make([]backbone.Selection, 0, heads)
	for _, h := range cl.Heads {
		s := sel.Select(b.OfScratch(h, &cov, &asm), backbone.Options{})
		out.PerHead = append(out.PerHead, s)
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
			for _, v32 := range g.Neighbors(int(m.from)) {
				v := int(v32)
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

	// The backbone: the heads and every designated gateway.
	size := heads
	for _, gw := range isGateway {
		if gw {
			size++
		}
	}
	out.Backbone = make(map[int]bool, size)
	for v, gw := range isGateway {
		if gw || cl.IsHead(v) {
			out.Backbone[v] = true
		}
	}
	return out
}

// RunDES is Run.
//
// Deprecated: Run is the only wire-protocol engine; call Run.
func RunDES(g *graph.Graph, mode coverage.Mode) *Outcome {
	return Run(g, mode)
}
