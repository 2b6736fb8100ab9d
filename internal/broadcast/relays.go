package broadcast

// designation is the payload of the sender-designating protocols: the set
// of neighbors the sender requests to relay.
type designation struct {
	forward map[int]bool
}

// designated reports whether v is asked to relay by pkt.
func designated(v int, pkt Packet) bool {
	d, ok := pkt.(*designation)
	return ok && d.forward[v]
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
	nb   *Neighborhood
	mpr  []map[int]bool // v -> MPR(v)
	pkts []*designation // cached payloads, one per node, so the engine can
	// deduplicate repeat designations by payload identity
}

// NewMPR precomputes MPR sets for every node of the neighborhood's graph.
func NewMPR(nb *Neighborhood) *MPR {
	n := nb.Graph().N()
	m := &MPR{nb: nb, mpr: make([]map[int]bool, n), pkts: make([]*designation, n)}
	for v := 0; v < n; v++ {
		m.mpr[v] = selectMPR(nb, v)
		m.pkts[v] = &designation{forward: m.mpr[v]}
	}
	return m
}

// selectMPR computes the multipoint relay set of v.
func selectMPR(nb *Neighborhood, v int) map[int]bool {
	targets := make(map[int]bool, len(nb.N2(v)))
	for w := range nb.N2(v) {
		targets[w] = true
	}
	selected := make(map[int]bool)
	neighbors := nb.Graph().Neighbors(v)

	// Stage 1: neighbors that are the only path to some 2-hop node.
	coverCount := make(map[int]int, len(targets))
	soleCover := make(map[int]int, len(targets))
	for _, u := range neighbors {
		for w := range nb.N1(u) {
			if targets[w] {
				coverCount[w]++
				soleCover[w] = u
			}
		}
	}
	for w, c := range coverCount {
		if c == 1 {
			selected[soleCover[w]] = true
		}
	}
	for u := range selected {
		for w := range nb.N1(u) {
			delete(targets, w)
		}
	}

	// Stage 2: greedy max cover for the rest.
	rest := greedyCover(targets, neighbors, func(c int) map[int]bool { return nb.N1(c) })
	for _, u := range rest {
		selected[u] = true
	}
	return selected
}

// Set returns MPR(v) (owned by the protocol).
func (m *MPR) Set(v int) map[int]bool { return m.mpr[v] }

// Name implements Protocol.
func (m *MPR) Name() string { return "mpr" }

// Start implements Protocol.
func (m *MPR) Start(source int) Packet { return m.pkts[source] }

// OnReceive implements Protocol: relay iff the transmitter selected v.
func (m *MPR) OnReceive(v, x int, pkt Packet) (bool, Packet) {
	if designated(v, pkt) {
		return true, m.pkts[v]
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
	nb      *Neighborhood
	partial bool // PDP's extra exclusion
	// pkts caches the payload minted for each (sender, upstream) pair.
	// Forward lists are deterministic in that pair, and reusing one payload
	// identity per pair lets the engine bound repeat designations.
	pkts map[[2]int]*designation
}

// NewDP builds dominant pruning over a neighborhood cache.
func NewDP(nb *Neighborhood) *DP { return &DP{nb: nb, pkts: make(map[[2]int]*designation)} }

// NewPDP builds partial dominant pruning over a neighborhood cache.
func NewPDP(nb *Neighborhood) *DP {
	return &DP{nb: nb, partial: true, pkts: make(map[[2]int]*designation)}
}

// Name implements Protocol.
func (d *DP) Name() string {
	if d.partial {
		return "pdp"
	}
	return "dp"
}

// forwardList computes v's forward list given that v heard the packet from
// upstream u (u < 0 for the source).
func (d *DP) forwardList(v, u int) map[int]bool {
	nb := d.nb
	// reached reports whether w already heard u's transmission.
	reached := func(w int) bool { return u >= 0 && (w == u || nb.N1(u)[w]) }
	// Targets: 2-hop neighbors of v not already reached by u's
	// transmission and not reached by v's own upcoming transmission.
	targets := make(map[int]bool)
	for w := range nb.N2(v) {
		if !reached(w) {
			targets[w] = true
		}
	}
	if d.partial && u >= 0 {
		// N(N(u) ∩ N(v)): neighbors of the common neighbors.
		for c := range nb.N1(u) {
			if !nb.N1(v)[c] {
				continue
			}
			for w := range nb.N1(c) {
				delete(targets, w)
			}
		}
	}
	// Candidates: v's neighbors, ascending, that did not already receive
	// from u.
	var candidates []int
	for _, c := range nb.Graph().Neighbors(v) {
		if !reached(c) {
			candidates = append(candidates, c)
		}
	}
	chosen := greedyCover(targets, candidates, func(c int) map[int]bool { return nb.N1(c) })
	out := make(map[int]bool, len(chosen))
	for _, c := range chosen {
		out[c] = true
	}
	return out
}

// packetFor returns the cached payload for sender v with upstream u.
func (d *DP) packetFor(v, u int) *designation {
	key := [2]int{v, u}
	if p, ok := d.pkts[key]; ok {
		return p
	}
	p := &designation{forward: d.forwardList(v, u)}
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
