package broadcast

import (
	"clustercast/internal/faults"
	"clustercast/internal/graph"
	"clustercast/internal/obs"
)

// MAC-level metrics, folded once per run.
var (
	mMACCollisions = obs.NewCounter("mac.collisions")
	mMACLostCopies = obs.NewCounter("mac.lost_copies")
)

// MACOptions configures the slotted collision model. The paper assumes
// "all the transmission collision and contention are taken care of at the
// underground physical and MAC layers"; this engine drops that assumption
// to show what the broadcast storm actually does: transmissions scheduled
// in the same slot collide at any receiver that hears more than one, and
// collided copies are lost (no link-layer retransmission for broadcast
// frames, as in 802.11).
type MACOptions struct {
	// Jitter is the contention window: each forwarder delays its
	// transmission by a uniform number of slots in [0, Jitter]. Larger
	// windows spread transmissions out and reduce collisions at a latency
	// cost — a stand-in for CSMA back-off.
	Jitter int
	// Seed drives the jitter draws.
	Seed uint64
	// Tracer, when non-nil, records the run's typed event stream
	// (including receiver-side collision events).
	Tracer *obs.Tracer
	// Faults, when non-nil, injects the fault schedule: crashed forwarders
	// stay silent in their slot, and copies the oracle drops (receiver
	// down, partition, loss burst) never reach the receiver — so they do
	// not take part in collision resolution either (fading happens before
	// decoding).
	Faults faults.Model
	// Workers is ignored: the MAC engines are sequential. The field
	// stays so existing callers compile.
	Workers int
}

// CollisionResult extends Result with MAC-level accounting.
type CollisionResult struct {
	Result
	// Collisions counts receiver-side collision events (a slot in which a
	// node heard ≥ 2 transmissions and therefore decoded none).
	Collisions int
	// LostCopies counts the individual copies destroyed by collisions.
	LostCopies int
}

// RunMAC simulates one broadcast under the slotted collision model. The
// forwarding policy is the same Protocol interface as the ideal engine;
// nodes decide on their first successfully decoded copy (and on decoded
// duplicates, as in RunOpts). It is the one-flow case of RunMACMulti —
// the flow {Src: source, Start: 0, Seed: opt.Seed} on a private
// MultiMACWorkspace — and folds only the single-source totals
// (broadcast.* and mac.collisions/lost_copies), not the mac.multi_*
// counters.
func RunMAC(g *graph.Graph, source int, p Protocol, opt MACOptions) *CollisionResult {
	var mw MultiMACWorkspace
	res := mw.run(g, []MultiFlow{{Src: source, Dst: -1, Seed: opt.Seed, Proto: p}}, opt)
	res.foldFlows()
	return &res.Flows[0].CollisionResult
}

// RunMACDES is RunMAC.
//
// Deprecated: the calendar engine is the only slotted-MAC engine; call
// RunMAC.
func RunMACDES(g *graph.Graph, source int, p Protocol, opt MACOptions) *CollisionResult {
	return RunMAC(g, source, p, opt)
}
