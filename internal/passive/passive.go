// Package passive implements the passive clustering scheme of Kwon and
// Gerla (ACM CCR 2002), discussed in the paper's related work: the cluster
// structure is constructed *during* data propagation instead of by an
// explicit setup phase. Each data packet piggybacks the sender's cluster
// state; a node decides its own state the moment it would forward:
//
//   - "First declaration wins": a node with no known clusterhead neighbor
//     declares itself clusterhead when it transmits.
//   - A node that has heard clusterheads becomes an ordinary node when at
//     least as many gateway neighbors as clusterhead neighbors are already
//     known (the "gateway selection heuristic": enough relays exist), and
//     a gateway otherwise.
//
// Forwarding rule: clusterheads and gateways forward; ordinary nodes do
// not. Roles keep refining as more packets are overheard, so the scheme
// converges over *successive* broadcasts: the first flood costs almost as
// much as blind flooding while the structure forms, and later floods reap
// the savings. It needs no setup traffic, but — as the paper notes — it
// "suffers poor delivery rate": ordinary nodes may be the only bridge to a
// corner of the network. The tests quantify exactly those trade-offs.
//
// A Protocol instance carries the evolving node states: reuse one across
// broadcasts to model the persistent structure, or create a fresh one to
// model a cold start.
package passive

import (
	"clustercast/internal/broadcast"
	"clustercast/internal/graph"
)

// State is a node's passive-clustering role.
type State uint8

// Roles in declaration order.
const (
	Initial State = iota
	Clusterhead
	Gateway
	Ordinary
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Initial:
		return "initial"
	case Clusterhead:
		return "clusterhead"
	case Gateway:
		return "gateway"
	case Ordinary:
		return "ordinary"
	default:
		return "unknown"
	}
}

// payload carries the sender's state with the data packet.
type payload struct {
	state State
	from  int
}

// Protocol is the stateful passive-clustering broadcast protocol.
type Protocol struct {
	g *graph.Graph
	// state of every node, evolving as packets propagate.
	state []State
	// heardHeads[v] collects the distinct clusterhead neighbors v heard.
	heardHeads []map[int]bool
	// heardGateways[v] collects the distinct gateway neighbors v heard.
	heardGateways []map[int]bool
}

var _ broadcast.Protocol = (*Protocol)(nil)

// NewProtocol returns a fresh protocol (all nodes in the Initial state).
func NewProtocol(g *graph.Graph) *Protocol {
	p := &Protocol{
		g:             g,
		state:         make([]State, g.N()),
		heardHeads:    make([]map[int]bool, g.N()),
		heardGateways: make([]map[int]bool, g.N()),
	}
	for i := range p.heardHeads {
		p.heardHeads[i] = make(map[int]bool)
		p.heardGateways[i] = make(map[int]bool)
	}
	return p
}

// Name implements broadcast.Protocol.
func (p *Protocol) Name() string { return "passive-clustering" }

// refine recomputes a non-clusterhead's role from accumulated neighbor
// knowledge. Clusterhead declarations are permanent ("first declaration
// wins" — the role is only given up on an explicit structure reset).
func (p *Protocol) refine(v int) {
	if p.state[v] == Clusterhead {
		return
	}
	heads := len(p.heardHeads[v])
	switch {
	case heads == 0:
		p.state[v] = Initial
	case len(p.heardGateways[v]) >= heads:
		// Enough gateways already serve the clusterheads v can hear.
		p.state[v] = Ordinary
	default:
		p.state[v] = Gateway
	}
}

// observe folds the piggybacked sender state into v's neighbor knowledge
// and refines v's role.
func (p *Protocol) observe(v int, pkt broadcast.Packet) {
	in, ok := pkt.(*payload)
	if !ok {
		return
	}
	switch in.state {
	case Clusterhead:
		p.heardHeads[v][in.from] = true
		delete(p.heardGateways[v], in.from)
	case Gateway:
		if !p.heardHeads[v][in.from] {
			p.heardGateways[v][in.from] = true
		}
	}
	p.refine(v)
}

// claim applies the first-declaration-wins rule at transmission time: a
// node about to transmit with no clusterhead in sight takes the role.
func (p *Protocol) claim(v int) {
	if p.state[v] == Initial {
		p.state[v] = Clusterhead
	}
}

// Start implements broadcast.Protocol.
func (p *Protocol) Start(source int) broadcast.Packet {
	p.claim(source)
	return &payload{state: p.state[source], from: source}
}

// OnReceive implements broadcast.Protocol.
func (p *Protocol) OnReceive(v, x int, pkt broadcast.Packet) (bool, broadcast.Packet) {
	p.observe(v, pkt)
	if p.state[v] == Ordinary {
		return false, nil
	}
	p.claim(v)
	return true, &payload{state: p.state[v], from: v}
}

// OnDuplicate implements broadcast.Protocol: forwarding is decided on the
// first copy only, but every overheard copy refines the structure.
func (p *Protocol) OnDuplicate(v, x int, pkt broadcast.Packet) (bool, broadcast.Packet) {
	p.observe(v, pkt)
	return false, nil
}

// Run is a convenience wrapper: fresh state, one broadcast.
func Run(g *graph.Graph, source int) *broadcast.Result {
	return broadcast.Run(g, source, NewProtocol(g))
}

// RunSeries broadcasts k packets from the given sources over one shared
// protocol instance, returning the per-broadcast results — the way passive
// clustering is meant to be used: the structure converges across packets.
func RunSeries(g *graph.Graph, sources []int) []*broadcast.Result {
	p := NewProtocol(g)
	out := make([]*broadcast.Result, len(sources))
	for i, src := range sources {
		out[i] = broadcast.Run(g, src, p)
	}
	return out
}
