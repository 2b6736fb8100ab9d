// Package broadcast provides a network-layer broadcast simulation engine
// for unit-disk-graph MANETs, plus the classic forwarding protocols the
// paper's related-work section discusses: blind flooding, probabilistic
// gossip, static-CDS forwarding (used for both the cluster-based SI-CDS and
// the MO_CDS baseline), multipoint relaying (MPR), dominant pruning (DP)
// and partial dominant pruning (PDP).
//
// The engine follows the paper's evaluation model: only network-layer
// traffic is simulated; the MAC/PHY layers are assumed to resolve collision
// and contention. A transmission by node x is received simultaneously by
// every neighbor of x one time unit later. Each node transmits a given
// packet at most once.
//
// Forwarding decisions are made when a node receives the packet for the
// first time; protocols whose senders *designate* forwarders (SD-CDS,
// dominant pruning, MPR) additionally get a chance on duplicate copies,
// because a node may hear its first copy from a transmission that does not
// designate it and only later be named a forward node.
package broadcast

import (
	"clustercast/internal/faults"
	"clustercast/internal/graph"
	"clustercast/internal/obs"
)

// Engine-level metrics. Recording is gated inside obs (one atomic bool
// load per Add when disabled), and the engines fold whole-run totals in a
// single Add per run, so the per-neighbor hot loops stay untouched.
var (
	mRuns          = obs.NewCounter("broadcast.runs")
	mTransmissions = obs.NewCounter("broadcast.transmissions")
	mDeliveries    = obs.NewCounter("broadcast.deliveries")
	mDuplicates    = obs.NewCounter("broadcast.duplicates")
	mFaultSkips    = obs.NewCounter("broadcast.fault_skipped_tx")
	mFaultDrops    = obs.NewCounter("broadcast.fault_dropped_copies")
)

// Packet is the protocol-specific payload piggybacked on a transmission.
// The engine treats it as opaque.
type Packet interface{}

// Protocol decides which receivers forward a broadcast packet.
type Protocol interface {
	// Name identifies the protocol in experiment output.
	Name() string
	// Start returns the payload the source attaches to its initial
	// transmission.
	Start(source int) Packet
	// OnReceive is invoked when node v receives the packet for the first
	// time from neighbor x carrying payload pkt. It reports whether v
	// forwards the packet and, if so, the payload v attaches.
	OnReceive(v, x int, pkt Packet) (forward bool, out Packet)
	// OnDuplicate is invoked when v, which has already received the packet
	// but not forwarded it, hears another copy. Returning true upgrades v
	// to a forwarder. Protocols without sender-side designation simply
	// return false.
	OnDuplicate(v, x int, pkt Packet) (forward bool, out Packet)
}

// Result summarizes one simulated broadcast.
type Result struct {
	Source int
	// Forwarders holds every node that transmitted the packet, including
	// the source. len(Forwarders) is the paper's "size of the forward node
	// set".
	Forwarders map[int]bool
	// Received holds every node that received (or originated) the packet.
	Received map[int]bool
	// Latency is the time unit at which the last node received the packet
	// (0 when nothing was delivered beyond the source).
	Latency int
	// Parent records, for every node that received the packet (except the
	// source), the neighbor whose transmission delivered the first copy.
	// Following Parent pointers from any receiver reaches the source: the
	// delivery tree of the broadcast.
	Parent map[int]int
	// Duplicates counts redundant receptions: copies delivered to nodes
	// that already had the packet. The broadcast storm problem (Ni et al.)
	// is exactly this number exploding with density — flooding a clique of
	// n nodes yields n·(n−2)+1 duplicates, a CDS backbone only a handful.
	Duplicates int
}

// Redundancy returns the average number of redundant copies per reached
// node. Received always contains the source, so the divisor is at least 1
// for any simulated broadcast; the 0 return covers only the zero-value
// Result.
func (r *Result) Redundancy() float64 {
	if len(r.Received) == 0 {
		return 0
	}
	return float64(r.Duplicates) / float64(len(r.Received))
}

// ForwardCount returns the size of the forward node set.
func (r *Result) ForwardCount() int { return len(r.Forwarders) }

// DeliveryRatio returns the fraction of the n nodes that received the
// packet.
func (r *Result) DeliveryRatio(n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(len(r.Received)) / float64(n)
}

// transmission is one queued radio transmission.
type transmission struct {
	sender int
	pkt    Packet
	time   int
}

// Options tunes the radio model of a simulated broadcast. The zero value
// is the paper's ideal model (every transmission reaches every neighbor).
type Options struct {
	// Loss is the independent per-link, per-transmission loss
	// probability. The paper assumes the MAC/PHY layers deliver
	// everything; the lossy model quantifies how much protocol redundancy
	// buys reliability (ABL-LOSSY).
	Loss float64
	// Seed drives the loss coin flips; equal seeds replicate exactly.
	Seed uint64
	// Tracer, when non-nil, records a typed event stream of the broadcast
	// (sends, deliveries, duplicate suppressions, plus the protocol-side
	// gateway-select/coverage-prune events of protocols that carry the
	// same tracer). nil — the default — costs one predicted branch per
	// event site.
	Tracer *obs.Tracer
	// Faults, when non-nil, consults the fault oracle every slot: a crashed
	// sender skips its queued transmission, and a copy is dropped when the
	// receiver is down, a scripted partition separates the link, or the
	// link's Gilbert–Elliott loss chain eats it. Independent of Loss (both
	// can be active). nil — the default — adds one predicted branch per
	// transmission and zero allocations. A down source yields a broadcast
	// that never leaves the source.
	Faults *faults.Oracle
}

// Run simulates one broadcast from source over g under the protocol with
// the ideal radio model.
//
// A node relays at most once per distinct received payload: a designated
// forward node that has already transmitted (e.g. the broadcast source
// itself, later named a gateway by its clusterhead) relays again when a new
// designating payload arrives, exactly as a real node would treat the
// upstream's forward request. This keeps the simulation finite — payload
// identities are only minted by OnReceive decisions, each node acts on each
// payload once — while preserving the designation semantics the SD-CDS,
// MPR and dominant-pruning protocols rely on.
func Run(g *graph.Graph, source int, p Protocol) *Result {
	return RunOpts(g, source, p, Options{})
}

// RunOpts is Run with an explicit radio model. It delegates to the dense
// workspace engine (see Workspace.RunOpts) and materializes the map-based
// Result; hot paths that run many broadcasts hold a Workspace instead and
// skip the materialization.
func RunOpts(g *graph.Graph, source int, p Protocol, opt Options) *Result {
	var ws Workspace
	return ws.RunOpts(g, source, p, opt).Materialize()
}

// NoDuplicates is a mixin for protocols that never act on duplicate
// copies. The ideal-radio and slotted-MAC engines trust it: for a
// protocol that embeds it, they never call OnDuplicate and keep no
// acted-payload lists. A type that embeds NoDuplicates must therefore not
// declare its own OnDuplicate (TestNoDuplicatesEmbeddersInheritOnDuplicate
// guards the module).
type NoDuplicates struct{}

// OnDuplicate implements Protocol by always declining.
func (NoDuplicates) OnDuplicate(v, x int, pkt Packet) (bool, Packet) { return false, nil }

// declinesDuplicates marks the embedders of NoDuplicates.
func (NoDuplicates) declinesDuplicates() {}

// actsOnDuplicates reports whether p's OnDuplicate can ever forward,
// i.e. whether p does not embed NoDuplicates.
func actsOnDuplicates(p Protocol) bool {
	_, declines := p.(interface{ declinesDuplicates() })
	return !declines
}
