// Package dynamicb implements the paper's *dynamic backbone*: the
// cluster-based source-dependent CDS built on demand, step by step, as a
// broadcast packet traverses the network.
//
// The clusterheads are fixed (lowest-ID clustering); the gateways are
// selected per broadcast. The protocol (paper §3, "Broadcasting in a
// Cluster-Based SD-CDS Backbone"):
//
//  1. A non-clusterhead source sends the packet to its clusterhead.
//  2. A clusterhead receiving the packet for the first time selects forward
//     nodes (gateways) that connect all clusterheads in its *updated*
//     coverage set: C(v) ← C(v) − C(u) − {u} − CH(N(r)), where u is the
//     upstream clusterhead whose coverage set arrived piggybacked with the
//     packet and r is the immediate transmitter (the second-hop relay in
//     the 2.5-hop case — the clusterheads adjacent to r heard r's
//     transmission themselves). It then broadcasts the packet, piggybacking
//     its own full coverage set C(v) and forward node set F(v). A
//     clusterhead always transmits once, even when the updated coverage set
//     is empty (the paper's "locally broadcasts").
//  3. A non-clusterhead relays iff it is named in the packet's forward node
//     set (possibly learning this from a duplicate copy).
//
// The nodes that end up transmitting form a source-dependent CDS
// (Theorem 2).
package dynamicb

import (
	"slices"

	"clustercast/internal/backbone"
	"clustercast/internal/broadcast"
	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/des"
	"clustercast/internal/graph"
	"clustercast/internal/obs"
)

// Per-rule pruning metrics: how often each exclusion of the updated
// coverage rule C(v) ← C(v) − C(u) − {u} − CH(N(r)) fired, plus the
// gateways the selections designated. The untraced-but-enabled path
// counts them from set-cardinality deltas (no per-element work); the
// traced path counts exactly the recorded events.
var (
	mPruneUpstream  = obs.NewCounter("dynamicb.prune.upstream_sender")
	mPrunePiggyback = obs.NewCounter("dynamicb.prune.piggybacked_set")
	mPruneSecondHop = obs.NewCounter("dynamicb.prune.second_hop_adjacent")
	mGateways       = obs.NewCounter("dynamicb.gateways_selected")
	mHeadPackets    = obs.NewCounter("dynamicb.head_packets")
)

// packet is the piggybacked payload of a dynamic-backbone transmission.
type packet struct {
	// fromCH is the last clusterhead that processed the packet (-1 when
	// the packet is fresh from a non-clusterhead source).
	fromCH int
	// cov holds C(u) ∪ {u} of that clusterhead: every clusterhead known to
	// be covered by its transmission. Sparse because coverage sets are
	// neighborhood-sized, not Θ(n).
	cov *graph.SparseSet
	// forward is F(u): the non-clusterhead nodes asked to relay. Sparse for
	// the same reason as cov: a handful of gateways, not Θ(n).
	forward *graph.SparseSet
}

// Protocol is the broadcast.Protocol implementation of the dynamic
// backbone. Construct once per clustered network with New; it is reusable
// across broadcasts from any source (the clusterheads and coverage sets
// are fixed; only gateway selection happens per broadcast).
type Protocol struct {
	g   *graph.Graph
	cl  *cluster.Clustering
	b   *coverage.Builder
	sel *backbone.Workspace // gateway-selection scratch

	// The coverage store: every head's C², C³, connectors and runs,
	// carved from five run-wide arenas. The i-th head of cl.Heads starts
	// at spans[i] and ends where spans[i+1] starts. No head owns a slice
	// of its own.
	spans    []span
	c2, c3   []int32
	conns    []coverage.Connector
	direct   []int32
	indirect []coverage.Hop2Entry

	// tracer, when non-nil, receives gateway-select and per-rule
	// coverage-prune events from every head packet this protocol builds.
	// Attach the same tracer to the engine run (Broadcast/BroadcastWS do
	// this automatically) so protocol events interleave with the packet
	// events at the right simulation times.
	tracer *obs.Tracer

	// Packet/set arenas, active only for workspace-backed protocols:
	// several head packets are alive within one broadcast, so the arenas
	// are bump-allocated and rewound once per broadcast (in Start).
	reuse   bool
	bws     *broadcast.Workspace
	need    graph.SparseSet
	sets    []*graph.SparseSet
	scur    int
	packets []*packet
	pcur    int

	// The head strips of init. Each strip assembles its heads into its
	// own region of the arenas, so the store does not depend on the strip
	// count.
	sh     des.Shards
	strips []initStrip
}

// span is where one head's coverage starts in each arena of the store.
// Four-byte offsets reach far beyond the paper's regimes: at n=1M, d=18
// the largest arena, the indirect entries, is bounded at about 3.2M.
type span struct{ c2, c3, conns, direct, indirect int32 }

// add returns the entrywise sum a + b.
func (a span) add(b span) span {
	return span{a.c2 + b.c2, a.c3 + b.c3, a.conns + b.conns, a.direct + b.direct, a.indirect + b.indirect}
}

// initStrip is one head strip's assembly scratch and its region of the
// arenas: where the region starts, how much of each arena it may fill
// (an upper bound from the digest's counts), and how much its heads
// filled.
type initStrip struct {
	asm                coverage.AsmScratch
	first              int // the strip's first head
	start, bound, used span
}

var _ broadcast.Protocol = (*Protocol)(nil)

// New builds the dynamic-backbone protocol for a clustered network under
// the given coverage-set mode.
func New(g *graph.Graph, cl *cluster.Clustering, mode coverage.Mode) *Protocol {
	return NewFrom(coverage.NewBuilder(g, cl, mode), g, cl)
}

// NewFrom builds the protocol reusing an existing coverage builder.
func NewFrom(b *coverage.Builder, g *graph.Graph, cl *cluster.Clustering) *Protocol {
	p := &Protocol{sel: backbone.NewWorkspace()}
	p.init(b, g, cl, 1)
	return p
}

// init (re)points the protocol at a clustered network and fills the
// coverage store over the given number of head strips (one when ≤ 1).
// The digest's counts bound what each strip's heads can fill, which sizes
// each arena once and cuts it into one region per strip. Every strip
// assembles its heads back to back from the start of its region, and the
// strips' blocks then move down to close the gaps, so the store is the
// same for any strip count.
func (p *Protocol) init(b *coverage.Builder, g *graph.Graph, cl *cluster.Clustering, workers int) {
	p.g, p.cl, p.b = g, cl, b
	k := len(cl.Heads)
	p.spans = resize(p.spans, k+1)
	p.sh.ResetRange(k, workers)
	for len(p.strips) < p.sh.K() {
		p.strips = append(p.strips, initStrip{})
	}
	strips := p.strips[:p.sh.K()]
	p.bound(strips)
	var at span
	for s := range strips {
		strips[s].start = at
		at = at.add(strips[s].bound)
	}
	p.c2, p.c3 = resize(p.c2, int(at.c2)), resize(p.c3, int(at.c3))
	p.conns = resize(p.conns, int(at.conns))
	p.direct, p.indirect = resize(p.direct, int(at.direct)), resize(p.indirect, int(at.indirect))
	p.each(workers, (*Protocol).fillStrip)
	at = span{}
	for s := range strips {
		st := &strips[s]
		if st.start != at {
			p.move(st.start, at, st.used)
		}
		lo, hi := p.sh.Range(s)
		for i := lo; i < hi; i++ {
			p.spans[i] = p.spans[i].add(at)
		}
		at = at.add(st.used)
	}
	p.spans[k] = at
	p.c2, p.c3, p.conns = p.c2[:at.c2], p.c3[:at.c3], p.conns[:at.conns]
	p.direct, p.indirect = p.direct[:at.direct], p.indirect[:at.indirect]
}

// bound sets each strip's bound from the digest's counts. A node v that
// hears a = |CH_HOP1(v)| clusterheads is a neighbor of each of them, and
// gives each one connector, exactly a−1 direct entries (every head it
// hears but that one) and at most |CH_HOP2(v)| indirect entries. C² takes
// at most a head's direct entries, and C³ at most its indirect ones. The
// scan reads the digest in node order; strips are contiguous in head ID,
// so each head's strip is found by walking the strips' first heads.
func (p *Protocol) bound(strips []initStrip) {
	for s := range strips {
		lo, _ := p.sh.Range(s)
		strips[s].bound, strips[s].first = span{}, len(p.cl.Heads)
		if lo < len(p.cl.Heads) {
			strips[s].first = p.cl.Heads[lo]
		}
	}
	for v, n := 0, p.g.N(); v < n; v++ {
		ch1 := p.b.CH1(v)
		if len(ch1) == 0 {
			continue
		}
		d, in := int32(len(ch1)-1), int32(p.b.CH2Count(v))
		s := 0
		for _, h := range ch1 {
			for s+1 < len(strips) && int(h) >= strips[s+1].first {
				s++
			}
			b := &strips[s].bound
			b.conns++
			b.direct += d
			b.indirect += in
		}
	}
	for s := range strips {
		b := &strips[s].bound
		b.c2, b.c3 = b.direct, b.indirect
	}
}

// each runs one init pass over every head strip: directly when there is a
// single strip, so the one-strip init builds no closure, and otherwise on
// up to workers goroutines.
func (p *Protocol) each(workers int, pass func(p *Protocol, s int)) {
	if p.sh.K() == 1 {
		pass(p, 0)
		return
	}
	p.sh.Each(workers, func(s int) { pass(p, s) })
}

// fillStrip assembles each head i of strip s in place, back to back from
// the start of the strip's region, and records in spans[i] where its
// coverage starts relative to that region.
func (p *Protocol) fillStrip(s int) {
	st := &p.strips[s]
	end := st.start.add(st.bound)
	var at span
	lo, hi := p.sh.Range(s)
	for i := lo; i < hi; i++ {
		a := st.start.add(at)
		c := coverage.Coverage{
			C2:       p.c2[a.c2:a.c2:end.c2],
			C3:       p.c3[a.c3:a.c3:end.c3],
			Conns:    p.conns[a.conns:a.conns:end.conns],
			Direct:   p.direct[a.direct:a.direct:end.direct],
			Indirect: p.indirect[a.indirect:a.indirect:end.indirect],
		}
		p.b.OfScratch(p.cl.Heads[i], &c, &st.asm)
		p.spans[i] = at
		at = at.add(span{int32(len(c.C2)), int32(len(c.C3)), int32(len(c.Conns)), int32(len(c.Direct)), int32(len(c.Indirect))})
	}
	// A list that outgrew its region would have moved off the arena.
	if b := st.bound; at.c2 > b.c2 || at.c3 > b.c3 || at.conns > b.conns || at.direct > b.direct || at.indirect > b.indirect {
		panic("dynamicb: a head strip's coverage outgrew the bound of its region")
	}
	st.used = at
}

// move copies a strip's filled block of every arena from where the strip
// filled it down to where the store keeps it.
func (p *Protocol) move(from, to, n span) {
	copy(p.c2[to.c2:], p.c2[from.c2:from.c2+n.c2])
	copy(p.c3[to.c3:], p.c3[from.c3:from.c3+n.c3])
	copy(p.conns[to.conns:], p.conns[from.conns:from.conns+n.conns])
	copy(p.direct[to.direct:], p.direct[from.direct:from.direct+n.direct])
	copy(p.indirect[to.indirect:], p.indirect[from.indirect:from.indirect+n.indirect])
}

// coverage returns the i-th head's coverage, its lists carved from the
// store and each capped at its length.
func (p *Protocol) coverage(i int) coverage.Coverage {
	a, z := &p.spans[i], &p.spans[i+1]
	return coverage.Coverage{
		Head: p.cl.Heads[i], Mode: p.b.Mode(), N: p.g.N(),
		C2:       p.c2[a.c2:z.c2:z.c2],
		C3:       p.c3[a.c3:z.c3:z.c3],
		Conns:    p.conns[a.conns:z.conns:z.conns],
		Direct:   p.direct[a.direct:z.direct:z.direct],
		Indirect: p.indirect[a.indirect:z.indirect:z.indirect],
	}
}

// resize returns s with length n, reallocating only when its capacity is
// short; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// allocSet returns a cleared set over 0..n−1: fresh for plain protocols,
// from the bump arena for workspace-backed ones.
func (p *Protocol) allocSet(n int) *graph.SparseSet {
	if !p.reuse {
		return graph.NewSparseSet(n)
	}
	if p.scur == len(p.sets) {
		p.sets = append(p.sets, graph.NewSparseSet(n))
	}
	s := p.sets[p.scur]
	p.scur++
	s.Reset(n)
	return s
}

// allocPacket returns a packet to fill, analogous to allocSet.
func (p *Protocol) allocPacket() *packet {
	if !p.reuse {
		return &packet{}
	}
	if p.pcur == len(p.packets) {
		p.packets = append(p.packets, &packet{})
	}
	pk := p.packets[p.pcur]
	p.pcur++
	return pk
}

// SetTracer attaches (or, with nil, detaches) a trace recorder. Broadcast
// and BroadcastWS hand the same tracer to the engine, so one attachment
// yields the full interleaved event stream.
func (p *Protocol) SetTracer(tr *obs.Tracer) { p.tracer = tr }

// Name implements broadcast.Protocol.
func (p *Protocol) Name() string {
	return "dynamic-" + p.b.Mode().String()
}

// Start implements broadcast.Protocol. For workspace-backed protocols the
// packet/set arenas rewind here — the engine retains nothing across
// broadcasts, so everything handed out during the previous broadcast is
// dead by the next Start.
func (p *Protocol) Start(source int) broadcast.Packet {
	p.scur, p.pcur = 0, 0
	if p.cl.IsHead(source) {
		return p.headPacket(source, nil, -1)
	}
	// Rule 1: a non-clusterhead source just sends the packet toward its
	// clusterhead; it designates no other relays.
	pk := p.allocPacket()
	*pk = packet{fromCH: -1, cov: nil, forward: nil}
	return pk
}

// headPacket runs clusterhead v's selection against the exclusions implied
// by the incoming packet (nil for a source clusterhead) and the immediate
// transmitter x (-1 for none), returning the outgoing payload.
func (p *Protocol) headPacket(v int, in *packet, x int) *packet {
	i, _ := slices.BinarySearch(p.cl.Heads, v)
	cov := p.coverage(i)
	n := p.g.N()
	// Updated coverage set: start from the full C(v), drop everything the
	// upstream transmission already covers. The need set is consumed by
	// the selection below and never escapes, so one scratch set serves
	// every head packet.
	need := &p.need
	union(need, n, cov.C2, cov.C3)
	if p.tracer != nil {
		// Traced: apply the exclusions element-wise so every pruned
		// clusterhead is attributed to the rule that removed it. The
		// resulting need set is identical to the wholesale path — the
		// exclusions are plain set differences.
		p.pruneTraced(need, in, v, x)
	} else {
		p.pruneCounted(need, in, x)
	}
	fwd := p.allocSet(n)
	p.sel.SelectInto(&cov, need, need, backbone.Options{}, fwd)
	if obs.Enabled() {
		mHeadPackets.Inc()
		mGateways.Add(int64(fwd.Count()))
	}
	if tr := p.tracer; tr != nil {
		fwd.ForEach(func(w int) { tr.GatewaySelect(v, w) })
	}
	// Piggyback the FULL coverage set (paper: "F(3)={9} and C(3)={1,2,4}
	// are piggybacked"): everything in C(v) either receives via F(v) or
	// was excluded precisely because it already received.
	full := p.allocSet(n)
	union(full, n, cov.C2, cov.C3)
	full.Add(v)
	pk := p.allocPacket()
	*pk = packet{fromCH: v, cov: full, forward: fwd}
	return pk
}

// union resets s to the universe 0..n−1 holding a ∪ b, two disjoint
// ascending runs. It adds the members in ascending order, and each such
// Add appends, so the merge costs O(|a| + |b|).
func union(s *graph.SparseSet, n int, a, b []int32) {
	s.Reset(n)
	for len(a) > 0 || len(b) > 0 {
		if len(b) == 0 || len(a) > 0 && a[0] < b[0] {
			s.Add(int(a[0]))
			a = a[1:]
		} else {
			s.Add(int(b[0]))
			b = b[1:]
		}
	}
}

// pruneTraced applies the updated-coverage exclusions to need one element
// at a time, recording a coverage-prune event (and bumping the per-rule
// counter) for every clusterhead removed. Attribution order follows the
// paper's formula: the upstream sender u first, then the piggybacked set
// C(u), then the second-hop-adjacent heads CH(N(r)) — a head excluded by
// several terms is attributed to the first.
func (p *Protocol) pruneTraced(need *graph.SparseSet, in *packet, v, x int) {
	tr := p.tracer
	if in != nil {
		if in.fromCH >= 0 && need.Has(in.fromCH) {
			tr.CoveragePrune(v, in.fromCH, obs.RuleUpstreamSender)
			mPruneUpstream.Inc()
			need.Remove(in.fromCH)
		}
		if in.cov != nil {
			in.cov.ForEach(func(w int) {
				if need.Has(w) {
					tr.CoveragePrune(v, w, obs.RulePiggybackedSet)
					mPrunePiggyback.Inc()
					need.Remove(w)
				}
			})
		}
	}
	if x >= 0 {
		for _, w32 := range p.b.CH1(x) {
			if w := int(w32); need.Has(w) {
				tr.CoveragePrune(v, w, obs.RuleSecondHopAdjacent)
				mPruneSecondHop.Inc()
				need.Remove(w)
			}
		}
	}
}

// pruneCounted is the wholesale exclusion path, with per-rule totals
// recovered from cardinality deltas (Count on a sparse set is O(1); the
// counters ignore them while observability is off). Attribution matches
// pruneTraced: the upstream sender is removed (and counted) before the
// piggybacked set, and the clusterheads adjacent to the immediate
// transmitter x, which heard the same transmission (the paper's N(r)
// exclusion), last.
func (p *Protocol) pruneCounted(need *graph.SparseSet, in *packet, x int) {
	if in != nil {
		if in.fromCH >= 0 && need.Has(in.fromCH) {
			mPruneUpstream.Inc()
			need.Remove(in.fromCH)
		}
		if in.cov != nil {
			before := need.Count()
			need.AndNot(in.cov)
			mPrunePiggyback.Add(int64(before - need.Count()))
		}
	}
	if x >= 0 {
		before := need.Count()
		for _, w := range p.b.CH1(x) {
			need.Remove(int(w))
		}
		mPruneSecondHop.Add(int64(before - need.Count()))
	}
}

// OnReceive implements broadcast.Protocol.
func (p *Protocol) OnReceive(v, x int, pkt broadcast.Packet) (bool, broadcast.Packet) {
	in, _ := pkt.(*packet)
	if p.cl.IsHead(v) {
		// Rule 2: a clusterhead always transmits on first reception.
		return true, p.headPacket(v, in, x)
	}
	// Rule 3: a non-clusterhead relays iff designated. A fresh packet from
	// a non-clusterhead source implicitly designates the source's
	// clusterhead only, which is handled above; other members stay quiet.
	if in != nil && in.forward != nil && in.forward.Has(v) {
		return true, in
	}
	return false, nil
}

// OnDuplicate implements broadcast.Protocol: a gateway may first hear the
// packet from a transmission that does not designate it and must still
// relay when a designating copy arrives.
func (p *Protocol) OnDuplicate(v, x int, pkt broadcast.Packet) (bool, broadcast.Packet) {
	if p.cl.IsHead(v) {
		return false, nil // clusterheads act on first reception only
	}
	in, _ := pkt.(*packet)
	if in != nil && in.forward != nil && in.forward.Has(v) {
		return true, in
	}
	return false, nil
}

// Broadcast runs one dynamic-backbone broadcast and returns the engine
// result. The forward node set of the paper's Figures 7 and 8 is
// res.ForwardCount().
func (p *Protocol) Broadcast(source int) *broadcast.Result {
	return broadcast.RunOpts(p.g, source, p, broadcast.Options{Tracer: p.tracer})
}

// BroadcastWS runs one broadcast on the protocol's dense engine workspace
// and returns the workspace-owned result — the allocation-free path for
// replicate loops. The result is valid until the next BroadcastWS call.
func (p *Protocol) BroadcastWS(source int) *broadcast.WSResult {
	if p.bws == nil {
		p.bws = broadcast.NewWorkspace()
	}
	return p.bws.RunOpts(p.g, source, p, broadcast.Options{Tracer: p.tracer})
}
