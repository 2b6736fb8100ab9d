package broadcast

import (
	"slices"

	"clustercast/internal/graph"
)

// runState is the per-run state every broadcast engine keeps for its
// (flow, node) cells, indexed fi*n + v; a single-source engine has one
// flow, so its cell is the node. The reception and forwarding marks are
// two bitsets over the n·flows cells, reset once per run (20 KB each at
// 32 flows of 5,000 nodes, so the hot loops' lookups stay in cache),
// beside int32 parents, which are read only where the reception bit says
// they are current and so are never cleared. Only a run with a protocol
// that can act on a duplicate (one that does not embed NoDuplicates)
// keeps acted-payload lists, each a contiguous segment of one arena; a
// run without one allocates neither.
type runState struct {
	n         int          // nodes of the current run
	received  graph.Bitset // the flow reached the node
	forwarded graph.Bitset // the node relayed the flow (or is its source)
	parent    []int32      // first-delivery sender, valid when received
	actedSeg  []segment    // the cell's acted payloads in acted
	acted     []Packet
}

// segment is one cell's acted payloads, acted[off : off+n]. Its capacity
// is n rounded up to a power of two, so a full segment doubles by moving
// to the arena's end. A DP or PDP forward node acts on dozens of
// payloads and every duplicate it hears scans them all, which a
// contiguous segment serves in one sequential pass.
type segment struct{ off, n int32 }

// reset sizes the state for flows flows over n nodes and empties the
// marks; acts sizes and empties the acted-payload lists too.
func (s *runState) reset(n, flows int, acts bool) {
	s.n = n
	cells := n * flows
	s.received.Reset(cells)
	s.forwarded.Reset(cells)
	if cap(s.parent) < cells {
		s.parent = make([]int32, cells)
	}
	s.parent = s.parent[:cells]
	if acts {
		if cap(s.actedSeg) < cells {
			s.actedSeg = make([]segment, cells)
		} else {
			s.actedSeg = s.actedSeg[:cells]
			clear(s.actedSeg)
		}
		if cap(s.acted) < n {
			// Presized per node, not per cell (2.6 MB at 32 flows of
			// 5,000 nodes): this spares a fresh workspace the arena's
			// first growth copies.
			s.acted = make([]Packet, 0, n)
		}
	}
	s.acted = s.acted[:0]
}

// originate marks cell c as its flow's source, received and forwarded;
// with acts, the cell has acted on the start payload.
func (s *runState) originate(c int, acts bool, start Packet) {
	s.received.Add(c)
	s.forwarded.Add(c)
	if acts {
		s.markActed(c, start)
	}
}

// forward marks cell c as relaying and reports whether this is its first
// relay.
func (s *runState) forward(c int) bool {
	if s.forwarded.Has(c) {
		return false
	}
	s.forwarded.Add(c)
	return true
}

// markActed records that cell c acted on pkt this run (deduplicated). A
// cell acts only when it relays, and then on the payload it heard and the
// one it sends.
func (s *runState) markActed(c int, pkt Packet) {
	if s.actedOn(c, pkt) {
		return
	}
	seg := &s.actedSeg[c]
	if seg.n&(seg.n-1) == 0 { // full (an empty segment has no room)
		at := len(s.acted)
		room := max(2*int(seg.n), 1)
		s.acted = slices.Grow(s.acted, room)[:at+room]
		copy(s.acted[at:], s.acted[seg.off:seg.off+seg.n])
		seg.off = int32(at)
	}
	s.acted[seg.off+seg.n] = pkt
	seg.n++
}

// actedOn reports whether cell c already acted on pkt this run.
func (s *runState) actedOn(c int, pkt Packet) bool {
	seg := s.actedSeg[c]
	for _, q := range s.acted[seg.off : seg.off+seg.n] {
		if q == pkt {
			return true
		}
	}
	return false
}

// release drops the arena's payload references until the next run.
func (s *runState) release() { clear(s.acted) }

// fill builds r's Received, Forwarders and Parent maps from flow fi's
// cells, presized from the flow's counts; r.Source must be set.
func (s *runState) fill(r *Result, fi, nReceived, nForward int) {
	r.Received = make(map[int]bool, nReceived)
	r.Forwarders = make(map[int]bool, nForward)
	r.Parent = make(map[int]int, nReceived-1)
	base := fi * s.n
	for v := 0; v < s.n; v++ {
		c := base + v
		if !s.received.Has(c) {
			continue
		}
		r.Received[v] = true
		if s.forwarded.Has(c) {
			r.Forwarders[v] = true
		}
		if v != r.Source {
			r.Parent[v] = int(s.parent[c])
		}
	}
}
