package sim

import (
	"sort"

	"clustercast/internal/backbone"
	"clustercast/internal/coverage"
	"clustercast/internal/graph"
)

// message is one local broadcast.
type message struct {
	typ  MsgType
	from int
	// ownHead is the sender's clusterhead (CH_HOP1, NON_CLUSTER_HEAD).
	ownHead int
	// heads carries the sender's 1-hop clusterheads (CH_HOP1).
	heads []int
	// entries carries the sender's 2-hop clusterhead entries w→relay
	// (CH_HOP2).
	entries map[int]int
	// selected carries the designated gateways (GATEWAY).
	selected []int
	// ttl limits GATEWAY forwarding.
	ttl int
}

// nodeState is a node's clustering role.
type nodeState uint8

const (
	candidate nodeState = iota
	head
	member
)

// node is the per-node protocol state machine.
type node struct {
	id    int
	state nodeState
	myID  int // redundant alias kept for clarity in the election logic

	// Learned from HELLO.
	neighbors []int
	// Election bookkeeping: what each neighbor last announced.
	neighborState map[int]nodeState
	ownHead       int

	// Coverage bookkeeping (the contents a clusterhead accumulates).
	adjHeads []int       // non-clusterhead: my 1-hop clusterheads
	hop2     map[int]int // non-clusterhead: my 2-hop clusterhead entries
	// Clusterhead side: gathered CH_HOP1/CH_HOP2 of my neighbors.
	gotHop1 map[int][]int
	gotHop2 map[int]map[int]int

	// Gateway designation.
	isGateway bool
}

// runOracle is the round-synchronous wire-protocol loop, the reference
// the production engine (Run) is checked against: every round scans all
// n node state machines and delivers message inboxes by value.
func runOracle(g *graph.Graph, mode coverage.Mode) *Outcome {
	n := g.N()
	nodes := make([]*node, n)
	for v := 0; v < n; v++ {
		nodes[v] = &node{
			id:            v,
			myID:          v,
			state:         candidate,
			neighborState: make(map[int]nodeState),
			ownHead:       -1,
			hop2:          make(map[int]int),
			gotHop1:       make(map[int][]int),
			gotHop2:       make(map[int]map[int]int),
		}
	}
	out := &Outcome{
		Head:     make([]int, n),
		Backbone: make(map[int]bool),
		PerHead:  make(map[int]backbone.Selection),
		Coverage: make(map[int]*coverage.Coverage),
	}
	var counters Counters

	// deliver sends every queued message to all neighbors of its sender
	// and advances one round, tallying the round's distinct senders.
	sentAt := make([]int, n)
	sentGen := 0
	deliver := func(queue []message) [][]message {
		inbox := make([][]message, n)
		sentGen++
		active := 0
		for _, m := range queue {
			counters.PerType[m.typ]++
			if sentAt[m.from] != sentGen {
				sentAt[m.from] = sentGen
				active++
			}
			for _, v := range g.Neighbors(m.from) {
				inbox[v] = append(inbox[v], m)
			}
		}
		if len(queue) > 0 {
			counters.Rounds++
			counters.ActivePerRound = append(counters.ActivePerRound, active)
		}
		return inbox
	}

	// ---- Phase A: HELLO. -------------------------------------------------
	var queue []message
	for v := 0; v < n; v++ {
		queue = append(queue, message{typ: Hello, from: v})
	}
	inbox := deliver(queue)
	for v := 0; v < n; v++ {
		for _, m := range inbox[v] {
			nodes[v].neighbors = append(nodes[v].neighbors, m.from)
			nodes[v].neighborState[m.from] = candidate
		}
		sort.Ints(nodes[v].neighbors)
	}

	// ---- Phase B: lowest-ID clusterhead election. ------------------------
	// Repeats until every node has decided. Each iteration is one
	// declaration round followed by one join round (two transmissions
	// rounds), mirroring the synchronous semantics of cluster.Elect.
	for {
		undecided := 0
		for _, nd := range nodes {
			if nd.state == candidate {
				undecided++
			}
		}
		if undecided == 0 {
			break
		}
		// Declaration round: a candidate declares when every smaller-ID
		// neighbor is known to be a member.
		queue = queue[:0]
		for _, nd := range nodes {
			if nd.state != candidate {
				continue
			}
			wins := true
			for _, u := range nd.neighbors {
				if u < nd.myID && nd.neighborState[u] != member {
					wins = false
					break
				}
			}
			if wins {
				nd.state = head
				nd.ownHead = nd.id
				queue = append(queue, message{typ: ClusterHead, from: nd.id})
			}
		}
		inbox = deliver(queue)
		// Join round: candidates hearing declarations join the smallest
		// head and announce NON_CLUSTER_HEAD.
		queue = queue[:0]
		for v := 0; v < n; v++ {
			nd := nodes[v]
			bestHead := -1
			for _, m := range inbox[v] {
				nd.neighborState[m.from] = head
				if nd.state == candidate && (bestHead == -1 || m.from < bestHead) {
					bestHead = m.from
				}
			}
			if nd.state == candidate && bestHead != -1 {
				nd.state = member
				nd.ownHead = bestHead
				queue = append(queue, message{typ: NonClusterHead, from: v, ownHead: bestHead})
			}
		}
		inbox = deliver(queue)
		for v := 0; v < n; v++ {
			for _, m := range inbox[v] {
				nodes[v].neighborState[m.from] = member
			}
		}
	}

	// ---- Phase C: CH_HOP1 / CH_HOP2 coverage exchange. -------------------
	// CH_HOP1: every non-clusterhead broadcasts its 1-hop clusterheads.
	queue = queue[:0]
	for _, nd := range nodes {
		if nd.state == head {
			continue
		}
		for _, u := range nd.neighbors {
			if nodes[u].state == head {
				nd.adjHeads = append(nd.adjHeads, u)
			}
		}
		sort.Ints(nd.adjHeads)
		queue = append(queue, message{typ: CHHop1, from: nd.id, ownHead: nd.ownHead, heads: nd.adjHeads})
	}
	inbox = deliver(queue)
	// Process CH_HOP1; non-clusterheads build 2-hop entries and broadcast
	// CH_HOP2; clusterheads stash the reports.
	queue = queue[:0]
	for v := 0; v < n; v++ {
		nd := nodes[v]
		adjacent := make(map[int]bool, len(nd.adjHeads))
		for _, w := range nd.adjHeads {
			adjacent[w] = true
		}
		for _, m := range inbox[v] {
			if nd.state == head {
				nd.gotHop1[m.from] = m.heads
				continue
			}
			switch mode {
			case coverage.Hop25:
				// Only the sender's own clusterhead generates an entry.
				w := m.ownHead
				if w >= 0 && !adjacent[w] {
					if prev, ok := nd.hop2[w]; !ok || m.from < prev {
						nd.hop2[w] = m.from
					}
				}
			case coverage.Hop3:
				for _, w := range m.heads {
					if !adjacent[w] {
						if prev, ok := nd.hop2[w]; !ok || m.from < prev {
							nd.hop2[w] = m.from
						}
					}
				}
			}
		}
		if nd.state != head {
			queue = append(queue, message{typ: CHHop2, from: v, entries: nd.hop2})
		}
	}
	inbox = deliver(queue)
	for v := 0; v < n; v++ {
		nd := nodes[v]
		if nd.state != head {
			continue
		}
		for _, m := range inbox[v] {
			nd.gotHop2[m.from] = m.entries
		}
	}

	// ---- Phase D: gateway selection and GATEWAY designation. -------------
	queue = queue[:0]
	for _, nd := range nodes {
		if nd.state != head {
			continue
		}
		cov := nd.assembleCoverage(mode, n)
		out.Coverage[nd.id] = cov
		sel := backbone.SelectGateways(cov, nil, nil)
		out.PerHead[nd.id] = sel
		queue = append(queue, message{typ: Gateway, from: nd.id, selected: sel.Gateways, ttl: 2})
	}
	// GATEWAY travels up to 2 hops; only selected nodes forward it.
	for hop := 0; hop < 2 && len(queue) > 0; hop++ {
		inbox = deliver(queue)
		queue = queue[:0]
		for v := 0; v < n; v++ {
			nd := nodes[v]
			for _, m := range inbox[v] {
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
				nd.isGateway = true
				// A selected gateway forwards each head's GATEWAY message
				// (a gateway can serve several heads), decrementing TTL.
				if m.ttl-1 > 0 {
					queue = append(queue, message{typ: Gateway, from: v, selected: m.selected, ttl: m.ttl - 1})
				}
			}
		}
	}

	// ---- Assemble the outcome. -------------------------------------------
	for v := 0; v < n; v++ {
		out.Head[v] = nodes[v].ownHead
		if nodes[v].state == head {
			out.Heads = append(out.Heads, v)
			out.Backbone[v] = true
		}
		if nodes[v].isGateway {
			out.Backbone[v] = true
		}
	}
	out.Counters = counters
	return out
}

// assembleCoverage builds the head's coverage.Coverage from the gathered
// CH_HOP1/CH_HOP2 reports, mirroring coverage.Builder.Of.
func (nd *node) assembleCoverage(mode coverage.Mode, n int) *coverage.Coverage {
	cov := &coverage.Coverage{
		Head: nd.id, Mode: mode,
		C2: graph.NewHybridSet(n), C3: graph.NewHybridSet(n),
	}
	// First pass over the (sorted) neighbors fills C² completely, because
	// the C³ pass below must filter against it. Per-neighbor lists are
	// collected into the connector layout coverage.Builder.Of produces.
	direct := make([][]int, len(nd.neighbors))
	for i, v := range nd.neighbors {
		heads, ok := nd.gotHop1[v]
		if !ok {
			continue
		}
		var d []int
		for _, w := range heads {
			if w == nd.id {
				continue
			}
			cov.C2.Add(w)
			d = append(d, w)
		}
		sort.Ints(d)
		direct[i] = d
	}
	for i, v := range nd.neighbors {
		var ind []coverage.Hop2Entry
		for w, r := range nd.gotHop2[v] {
			if w == nd.id || cov.C2.Has(w) {
				continue
			}
			cov.C3.Add(w)
			ind = append(ind, coverage.Hop2Entry{W: w, R: r})
		}
		sort.Slice(ind, func(a, b int) bool { return ind[a].W < ind[b].W })
		if len(direct[i]) == 0 && len(ind) == 0 {
			continue
		}
		cov.Conns = append(cov.Conns, coverage.Connector{V: v, Direct: direct[i], Indirect: ind})
	}
	return cov
}
