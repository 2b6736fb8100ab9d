// Package des is the sharded pending-event calendar underneath the
// event-driven simulation cores: a bucketed timestamp wheel (Wheel) for
// O(1) enqueue/dequeue on slot-quantized workloads, and deterministic
// cross-shard delivery (Shards) for the fan-out phases that are safe to
// parallelize.
//
// The design goals, in order:
//
//  1. Bit-identical replay of the scalar reference loops. The wheel
//     dequeues events in (slot, push order), exactly the (time, seq)
//     order of a binary heap fed the same pushes; the shard exchange
//     concatenates mailboxes in a fixed shard order so results do not
//     depend on the worker count.
//  2. Zero steady-state allocations. Buckets, mailboxes, and scratch are
//     pooled and reused across runs (epoch-stamped or length-reset, in
//     the style of the coverage/backbone scratch); the event loop itself
//     — Push, OpenSlot, Bucket, CloseSlot — allocates only when a pooled
//     slice grows past its high-water mark.
//  3. O(occupied slots) control overhead, not O(horizon). Idle slots are
//     skipped with an occupancy bitmap (word-parallel scan), and events
//     beyond the wheel's window park in a small overflow heap until the
//     window reaches them.
//
// The slotted-MAC, multi-source MAC and back-off broadcast engines
// (broadcast.RunMAC, RunMACMulti, RunTimedOpts) run on the wheel; each
// keeps its scalar loop as a test oracle, gated by equivalence and fuzz
// tests. Shards serves the sharded construction stages (cluster,
// coverage, topology, dynamicb).
package des

import "clustercast/internal/obs"

// Package-level counters, folded once per run by Wheel.FoldStats (so the
// event loop itself never touches the atomics).
var (
	mSlots    = obs.NewCounter("des.slots")                // occupied slots drained
	mEvents   = obs.NewCounter("des.events")               // events dequeued
	mSkipped  = obs.NewCounter("des.slots_skipped")        // idle slots jumped over
	mFar      = obs.NewCounter("des.far_events")           // events parked beyond the wheel window
	mPromoted = obs.NewCounter("des.far_promoted")         // far events promoted back into buckets
	mFanouts  = obs.NewCounter("des.shard_fanouts")        // sharded exchange rounds
	mMail     = obs.NewCounter("des.shard_messages")       // messages exchanged (all mailboxes)
	mCross    = obs.NewCounter("des.shard_cross_messages") // messages that crossed a shard boundary
	// mHighWater tracks the peak number of simultaneously pending events
	// any wheel reached — the calendar's working-set health signal.
	mHighWater = obs.NewGauge("des.wheel_high_water")
)
