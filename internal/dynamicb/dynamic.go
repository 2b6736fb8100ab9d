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
	// be covered by its transmission. Hybrid because coverage sets are
	// neighborhood-sized, not Θ(n).
	cov *graph.HybridSet
	// forward is F(u): the non-clusterhead nodes asked to relay. Hybrid for
	// the same reason as cov: a handful of gateways, not Θ(n).
	forward *graph.HybridSet
}

// Protocol is the broadcast.Protocol implementation of the dynamic
// backbone. Construct once per clustered network with New; it is reusable
// across broadcasts from any source (the clusterheads and coverage sets
// are fixed; only gateway selection happens per broadcast).
type Protocol struct {
	g         *graph.Graph
	cl        *cluster.Clustering
	b         *coverage.Builder
	covArena  []coverage.Coverage  // per-head full coverage sets
	covByNode []*coverage.Coverage // head ID -> its arena entry
	sel       *backbone.Workspace  // gateway-selection scratch

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
	need    graph.HybridSet
	hsets   []*graph.HybridSet
	hcur    int
	packets []*packet
	pcur    int

	// The head strips of init, with one assembly scratch each. Each head's
	// Coverage is assembled into its own covArena slot by exactly one
	// strip, so the arena contents do not depend on the strip count.
	sh   des.Shards
	scrs []coverage.AsmScratch
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

// init (re)points the protocol at a clustered network, computing the
// per-head coverage sets into the reused arena over the given number of
// head strips (one when ≤ 1).
func (p *Protocol) init(b *coverage.Builder, g *graph.Graph, cl *cluster.Clustering, workers int) {
	p.g, p.cl, p.b = g, cl, b
	n := g.N()
	if cap(p.covArena) < len(cl.Heads) {
		p.covArena = make([]coverage.Coverage, len(cl.Heads))
	}
	p.covArena = p.covArena[:len(cl.Heads)]
	if cap(p.covByNode) < n {
		p.covByNode = make([]*coverage.Coverage, n)
	}
	p.covByNode = p.covByNode[:n]
	for i := range p.covByNode {
		p.covByNode[i] = nil
	}
	p.sh.ResetRange(len(cl.Heads), workers)
	for len(p.scrs) < p.sh.K() {
		p.scrs = append(p.scrs, coverage.AsmScratch{})
	}
	if p.sh.K() == 1 {
		p.initStrip(0)
	} else {
		p.sh.Each(workers, p.initStrip)
	}
}

// initStrip assembles the full coverage sets of head strip s.
func (p *Protocol) initStrip(s int) {
	lo, hi := p.sh.Range(s)
	scr := &p.scrs[s]
	for i := lo; i < hi; i++ {
		h := p.cl.Heads[i]
		c := &p.covArena[i]
		p.b.OfScratch(h, c, scr)
		p.covByNode[h] = c // distinct h per head index: single writer
	}
}

// allocHybrid returns a cleared n-hybrid-set: fresh for plain protocols,
// from the bump arena for workspace-backed ones.
func (p *Protocol) allocHybrid(n int) *graph.HybridSet {
	if !p.reuse {
		return graph.NewHybridSet(n)
	}
	if p.hcur == len(p.hsets) {
		p.hsets = append(p.hsets, graph.NewHybridSet(n))
	}
	h := p.hsets[p.hcur]
	p.hcur++
	h.Reset(n)
	return h
}

// allocPacket returns a packet to fill, analogous to allocHybrid.
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
// packet/bitset arenas rewind here — the engine retains nothing across
// broadcasts, so everything handed out during the previous broadcast is
// dead by the next Start.
func (p *Protocol) Start(source int) broadcast.Packet {
	p.hcur, p.pcur = 0, 0
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
	cov := p.covByNode[v]
	n := p.g.N()
	// Updated coverage set: start from the full C(v), drop everything the
	// upstream transmission already covers. The need set is consumed by
	// the selection below and never escapes, so one scratch set serves
	// every head packet.
	need := &p.need
	need.Reset(n)
	need.CopyFrom(cov.C2)
	need.Or(cov.C3)
	switch {
	case p.tracer != nil:
		// Traced: apply the exclusions element-wise so every pruned
		// clusterhead is attributed to the rule that removed it. The
		// resulting need set is identical to the wholesale path — the
		// exclusions are plain set differences.
		p.pruneTraced(need, in, v, x)
	case obs.Enabled():
		// Metrics only: wholesale set ops, per-rule totals recovered from
		// cardinality deltas (Count on a sparse set is O(1)).
		p.pruneCounted(need, in, x)
	default:
		if in != nil {
			if in.cov != nil {
				need.AndNot(in.cov)
			}
			if in.fromCH >= 0 {
				need.Remove(in.fromCH)
			}
		}
		if x >= 0 {
			// Clusterheads adjacent to the immediate transmitter heard the
			// same transmission v heard (the paper's N(r) exclusion).
			for _, w := range p.b.CH1(x) {
				need.Remove(w)
			}
		}
	}
	fwd := p.allocHybrid(n)
	p.sel.SelectInto(cov, need, need, backbone.Options{}, fwd)
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
	full := p.allocHybrid(n)
	full.CopyFrom(cov.C2)
	full.Or(cov.C3)
	full.Add(v)
	pk := p.allocPacket()
	*pk = packet{fromCH: v, cov: full, forward: fwd}
	return pk
}

// pruneTraced applies the updated-coverage exclusions to need one element
// at a time, recording a coverage-prune event (and bumping the per-rule
// counter) for every clusterhead removed. Attribution order follows the
// paper's formula: the upstream sender u first, then the piggybacked set
// C(u), then the second-hop-adjacent heads CH(N(r)) — a head excluded by
// several terms is attributed to the first.
func (p *Protocol) pruneTraced(need *graph.HybridSet, in *packet, v, x int) {
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
		for _, w := range p.b.CH1(x) {
			if need.Has(w) {
				tr.CoveragePrune(v, w, obs.RuleSecondHopAdjacent)
				mPruneSecondHop.Inc()
				need.Remove(w)
			}
		}
	}
}

// pruneCounted is the wholesale exclusion path with per-rule totals
// recovered from cardinality deltas. Attribution matches pruneTraced: the
// upstream sender is removed (and counted) before the piggybacked set.
func (p *Protocol) pruneCounted(need *graph.HybridSet, in *packet, x int) {
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
			need.Remove(w)
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
