package broadcast

import (
	"slices"

	"clustercast/internal/graph"
)

// designation is the payload of the sender-designating protocols: the
// ascending IDs of the neighbors the sender requests to relay.
type designation struct {
	forward []int32
}

// designated reports whether v is asked to relay by pkt.
func designated(v int, pkt Packet) bool {
	d, ok := pkt.(*designation)
	if !ok {
		return false
	}
	_, found := slices.BinarySearch(d.forward, int32(v))
	return found
}

// MPR implements broadcast by multipoint relaying (Qayyum, Viennot,
// Laouiti): every node v precomputes a multipoint relay set MPR(v) ⊆ N(v)
// covering its entire 2-hop neighborhood; a node relays iff the neighbor it
// heard the packet from has selected it as an MPR.
//
// The MPR selection is the standard two-stage heuristic: first take the
// neighbors that are the sole cover of some 2-hop node, then greedily add
// the neighbor covering the most uncovered 2-hop nodes.
type MPR struct {
	// pkts[v] carries MPR(v). One payload per node lets the engine
	// deduplicate repeat designations by payload identity.
	pkts []designation
}

// NewMPR precomputes MPR sets for every node of g.
func NewMPR(g *graph.Graph) *MPR {
	s := newCover(g)
	m := &MPR{pkts: make([]designation, g.N())}
	for v := range m.pkts {
		s.prepare(v, -1, false)
		// Stage 1: neighbors that are the only path to some 2-hop node.
		var sel []int32
		for _, c := range s.cands {
			for _, w := range g.Neighbors(int(c)) {
				if s.stamp[w] == s.tg && s.sole[w] == c {
					sel = append(sel, c)
					s.drop(c)
					break
				}
			}
		}
		// Stage 2: greedy max cover for the rest.
		m.pkts[v].forward = s.greedy(sel)
	}
	return m
}

// Name implements Protocol.
func (m *MPR) Name() string { return "mpr" }

// Start implements Protocol.
func (m *MPR) Start(source int) Packet { return &m.pkts[source] }

// OnReceive implements Protocol: relay iff the transmitter selected v.
func (m *MPR) OnReceive(v, x int, pkt Packet) (bool, Packet) {
	if designated(v, pkt) {
		return true, &m.pkts[v]
	}
	return false, nil
}

// OnDuplicate implements Protocol: a later transmitter may designate v.
func (m *MPR) OnDuplicate(v, x int, pkt Packet) (bool, Packet) {
	return m.OnReceive(v, x, pkt)
}

// DP implements dominant pruning (Lim, Kim): the sender picks a forward
// list from its neighbors that covers its 2-hop neighborhood, excluding
// nodes already covered by the upstream sender's transmission.
//
// Built by NewPDP it is partial dominant pruning (Lou, Wu 2002), the
// tighter variant: in addition to N(u), the nodes covered by the common
// neighbors of u and v — N(N(u) ∩ N(v)) — are excluded from the target
// set, because those common neighbors received the packet simultaneously
// with v and will have their own chance to cover them.
type DP struct {
	cov     *cover
	partial bool // PDP's extra exclusion
	// pkts caches the payload minted for each (sender, upstream) pair.
	// Forward lists are deterministic in that pair, and reusing one payload
	// identity per pair lets the engine bound repeat designations.
	pkts map[[2]int]*designation
}

// NewDP builds dominant pruning over g. A DP computes forward lists on
// demand in a scratch of 8 bytes per node, so it is not safe for
// concurrent use; build one per goroutine.
func NewDP(g *graph.Graph) *DP { return &DP{cov: newCover(g), pkts: make(map[[2]int]*designation)} }

// NewPDP builds partial dominant pruning over g, with the scratch of NewDP.
func NewPDP(g *graph.Graph) *DP {
	return &DP{cov: newCover(g), partial: true, pkts: make(map[[2]int]*designation)}
}

// Name implements Protocol.
func (d *DP) Name() string {
	if d.partial {
		return "pdp"
	}
	return "dp"
}

// packetFor returns the cached payload for sender v with upstream u.
func (d *DP) packetFor(v, u int) *designation {
	key := [2]int{v, u}
	if p, ok := d.pkts[key]; ok {
		return p
	}
	d.cov.prepare(v, u, d.partial)
	p := &designation{forward: d.cov.greedy(nil)}
	d.pkts[key] = p
	return p
}

// Start implements Protocol.
func (d *DP) Start(source int) Packet {
	return d.packetFor(source, -1)
}

// OnReceive implements Protocol.
func (d *DP) OnReceive(v, x int, pkt Packet) (bool, Packet) {
	if designated(v, pkt) {
		return true, d.packetFor(v, x)
	}
	return false, nil
}

// OnDuplicate implements Protocol.
func (d *DP) OnDuplicate(v, x int, pkt Packet) (bool, Packet) {
	return d.OnReceive(v, x, pkt)
}
