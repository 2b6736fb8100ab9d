package broadcast

import (
	"clustercast/internal/graph"
	"clustercast/internal/obs"
)

// Multi-source MAC metrics, folded once per RunMACMulti.
var (
	mMultiRuns       = obs.NewCounter("mac.multi_runs")
	mMultiFlows      = obs.NewCounter("mac.multi_flows")
	mCrossCollisions = obs.NewCounter("mac.cross_collisions")
)

// MultiFlow is one broadcast of a multi-source traffic workload: a source
// injecting a packet at an absolute slot, carrying its own protocol
// instance and its own jitter seed.
//
// Proto must be private to the flow when the protocol keeps per-broadcast
// state (the engine interleaves OnReceive callbacks of concurrently active
// flows); stateless protocols (Flooding, StaticCDS, Gossip) and the
// non-reusing dynamic-backbone protocol may be shared across flows.
type MultiFlow struct {
	// Src is the broadcast source.
	Src int
	// Dst, when >= 0, names the node whose first decode the engine
	// timestamps (FlowResult.DstSlot) — the RREQ destination of a route
	// discovery. -1 for a plain broadcast.
	Dst int
	// Start is the absolute slot the source transmits in (>= 0).
	Start int
	// Seed drives this flow's jitter draws. In the zero-contention limit
	// (no other flow shares a slot with this one) the flow's result is
	// bit-identical to RunMAC(g, Src, Proto, MACOptions{Jitter, Seed}).
	Seed uint64
	// Proto decides forwarding for this flow's packet.
	Proto Protocol
}

// FlowResult is one flow's outcome within a multi-source run. Latency is
// relative to the flow's Start slot, so in the zero-contention limit the
// embedded CollisionResult equals the flow's single-source RunMAC result
// field for field.
type FlowResult struct {
	CollisionResult
	// Start echoes the flow's injection slot.
	Start int
	// DstSlot is the absolute slot at which the flow's Dst first decoded
	// the packet (-1 when the flow has no Dst or it was never reached;
	// Start when Dst == Src).
	DstSlot int
}

// MultiResult aggregates one multi-source slotted-MAC run.
type MultiResult struct {
	// Flows holds the per-flow results, index-aligned with the input.
	Flows []*FlowResult
	// SharedCollisions counts receiver-slot collision events on the shared
	// medium, each counted once regardless of how many flows collided.
	SharedCollisions int
	// CrossCollisions counts the subset of SharedCollisions whose destroyed
	// copies came from at least two distinct flows — the inter-flow
	// contention a single-source run can never exhibit.
	CrossCollisions int
	// Transmissions counts transmissions that went on the air across all
	// flows (crashed senders excluded).
	Transmissions int
	// Makespan is the last delivery slot of the run (absolute; 0 when
	// nothing was delivered beyond the sources).
	Makespan int
}

// DeliveryRatio returns the mean per-flow delivery ratio over n nodes.
func (m *MultiResult) DeliveryRatio(n int) float64 {
	if len(m.Flows) == 0 || n == 0 {
		return 0
	}
	sum := 0.0
	for _, f := range m.Flows {
		sum += f.DeliveryRatio(n)
	}
	return sum / float64(len(m.Flows))
}

// multiTx is one queued transmission of the multi-source engine.
type multiTx struct {
	flow    int32
	sender  int32
	trigger int32 // upstream sender that caused this relay (-1: source)
	pkt     Packet
}

// RunMACMulti simulates concurrently active broadcasts under the slotted
// collision model: transmissions of *all* flows scheduled in the same slot
// contend, and a receiver that hears more than one — regardless of which
// flows they belong to — decodes none. Per-flow forwarding state
// (reception, duplicates, acted payloads, jitter stream) is independent,
// so with disjoint slot schedules the run degenerates to len(flows)
// serialized single-source RunMAC runs, bit for bit (gated by
// TestMultiMACZeroContentionEquivalence).
//
// opt.Seed is unused: each flow's jitter stream derives from its own Seed,
// which is what makes a flow's randomness independent of which other flows
// share the air. opt.Workers is ignored; opt.Tracer and opt.Faults apply
// to the shared medium exactly as in RunMAC. Every flow's Start must be
// >= 0. Callers running many scenarios hold a MultiMACWorkspace instead.
func RunMACMulti(g *graph.Graph, flows []MultiFlow, opt MACOptions) *MultiResult {
	var mw MultiMACWorkspace
	return mw.Run(g, flows, opt)
}

// foldFlows records the broadcast.* and mac.* totals a serialized
// sequence of single-source runs of the flows would have folded.
func (m *MultiResult) foldFlows() {
	deliveries, duplicates, collisions, lost := 0, 0, 0, 0
	for _, f := range m.Flows {
		deliveries += len(f.Received) - 1
		duplicates += f.Duplicates
		collisions += f.Collisions
		lost += f.LostCopies
	}
	mRuns.Add(int64(len(m.Flows)))
	mTransmissions.Add(int64(m.Transmissions))
	mDeliveries.Add(int64(deliveries))
	mDuplicates.Add(int64(duplicates))
	mMACCollisions.Add(int64(collisions))
	mMACLostCopies.Add(int64(lost))
}

// fold records the run's totals in the metrics registry: foldFlows plus
// the multi-source-only counters.
func (m *MultiResult) fold() {
	m.foldFlows()
	mMultiRuns.Inc()
	mMultiFlows.Add(int64(len(m.Flows)))
	mCrossCollisions.Add(int64(m.CrossCollisions))
}
