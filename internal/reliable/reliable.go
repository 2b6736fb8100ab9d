// Package reliable implements reliable broadcast delivery over the
// cluster-based forwarding tree, after Pagani and Rossi (1999): the tree
// (clusterhead → gateway → clusterhead levels) gives every node a parent
// responsible for its delivery, so lost copies are repaired by
// retransmission instead of by flooding redundancy.
//
// The simulation model extends the repository's broadcast engine with
// acknowledgements. The packet first climbs from the source's attachment
// point to the tree root, then flows down every branch; in each round a
// tree node holding the packet retransmits while some peer it is
// responsible for — its unconfirmed tree children, its unconfirmed
// dominated (non-tree) neighbors, or a parent that has not yet been heard
// holding the packet — is outstanding. Per-copy loss is Bernoulli;
// acknowledgements are assumed reliable (short ARQ control frames in the
// real protocol).
package reliable

import (
	"fmt"

	"clustercast/internal/faults"
	"clustercast/internal/fwdtree"
	"clustercast/internal/graph"
	"clustercast/internal/obs"
	"clustercast/internal/rng"
)

// Retransmission-engine metrics, accumulated in per-run locals and folded
// once per Run (the engines' fold-then-Add discipline: the round loop
// never touches atomics). All zero-cost when obs is disabled.
var (
	mRuns          = obs.NewCounter("reliable.runs")
	mTransmissions = obs.NewCounter("reliable.transmissions")
	mAcks          = obs.NewCounter("reliable.acks")
	mRetrans       = obs.NewCounter("reliable.retransmissions")       // re-sends by nodes that already transmitted
	mRetransRounds = obs.NewCounter("reliable.retransmission_rounds") // rounds containing >= 1 retransmission
	mBackoffWaits  = obs.NewCounter("reliable.backoff_waits")         // sender-rounds sat out in exponential backoff
	mFFJumps       = obs.NewCounter("reliable.fastforward_jumps")     // idle-window jumps taken (faults.Oracle.NextUp)
	mFFRounds      = obs.NewCounter("reliable.fastforward_rounds")    // rounds those jumps skipped
	mDegraded      = obs.NewCounter("reliable.degraded")              // runs conceding degradation
)

// Result summarizes one reliable broadcast.
type Result struct {
	// Delivered reports whether every node received the packet.
	Delivered bool
	// Degraded reports that the run ended without full delivery because the
	// fault schedule severed the tree (or outlasted the retransmission
	// budget): no sender made progress for a long stretch, so the engine
	// gave up instead of spinning to MaxRounds. Only set under a fault
	// oracle; a severed tree is an operating condition there, not an error.
	Degraded bool
	// Transmissions counts data transmissions (retransmissions included).
	Transmissions int
	// Acks counts acknowledgement messages sent.
	Acks int
	// Rounds is the number of rounds until quiescence (or the cutoff).
	Rounds int
}

// Config tunes the run.
type Config struct {
	// Loss is the per-copy Bernoulli loss probability (0 = ideal radio).
	Loss float64
	// Seed drives the loss draws.
	Seed uint64
	// MaxRounds cuts off pathological runs (default 10·n, at least 100).
	MaxRounds int
	// Faults, when non-nil, injects the fault schedule (one oracle slot per
	// round): a crashed node neither transmits nor receives — its radio is
	// off but its packet memory survives the outage — and copies drop per
	// the oracle's link and loss-chain state. Senders whose copies keep
	// being lost back off exponentially (capped at 8 rounds between
	// retries) instead of retransmitting every round, and a run that makes
	// no progress for a long stretch returns Degraded instead of burning
	// rounds to the cutoff. nil leaves the classic behavior bit-identical.
	Faults *faults.Oracle
	// Tracer, when non-nil, records retransmit events (one per re-send,
	// with the sender's outstanding-peer count) and a stall event if the
	// run concedes degradation. nil is the Nop default and costs one
	// predicted branch per round.
	Tracer *obs.Tracer

	// noFastForward disables the idle-window fast-forward (the jump over
	// rounds in which every outstanding sender is crashed or backing off,
	// available under Faults) and polls round by round instead. Results
	// are bit-identical either way; the package's tests set it to run the
	// round-by-round reference.
	noFastForward bool
}

// Run performs one reliable broadcast of a packet originating at source
// over the forwarding tree t in graph g.
func Run(g *graph.Graph, t *fwdtree.Tree, source int, cfg Config) (*Result, error) {
	n := g.N()
	if source < 0 || source >= n {
		return nil, fmt.Errorf("reliable: source %d out of range", source)
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 10 * n
		if maxRounds < 100 {
			maxRounds = 100
		}
	}
	loss := rng.NewLabeled(cfg.Seed, "reliable-loss")

	// children[v]: tree children of v.
	children := make(map[int][]int)
	for v, p := range t.Parent {
		children[p] = append(children[p], v)
	}
	// dominator[v]: for non-tree v, the lowest-ID tree neighbor, which is
	// responsible for v's delivery. responsible is its inverse.
	responsible := make(map[int][]int)
	dominator := make([]int, n)
	for v := 0; v < n; v++ {
		dominator[v] = -1
		if t.Nodes.Has(v) {
			continue
		}
		for _, u32 := range g.Neighbors(v) {
			if u := int(u32); t.Nodes.Has(u) && (dominator[v] == -1 || u < dominator[v]) {
				dominator[v] = u
			}
		}
		if dominator[v] != -1 {
			responsible[dominator[v]] = append(responsible[dominator[v]], v)
		}
	}

	has := make([]bool, n)
	has[source] = true
	// confirmed[v][x]: v knows x holds the packet (x acked v, or v heard
	// the packet from x).
	confirmed := make([]map[int]bool, n)
	confirm := func(v, x int) {
		if confirmed[v] == nil {
			confirmed[v] = make(map[int]bool)
		}
		confirmed[v][x] = true
	}
	knows := func(v, x int) bool { return confirmed[v][x] }

	parentOf := func(v int) (int, bool) {
		p, ok := t.Parent[v]
		return p, ok
	}

	// wantsToSend reports whether v still owes somebody the packet.
	wantsToSend := func(v int) bool {
		if !has[v] {
			return false
		}
		if !t.Nodes.Has(v) {
			// Off-tree holder (only ever the source): push until some tree
			// neighbor is known to hold the packet.
			if v != source {
				return false
			}
			for _, u := range g.Neighbors(v) {
				if t.Nodes.Has(int(u)) && knows(v, int(u)) {
					return false
				}
			}
			return true
		}
		if p, ok := parentOf(v); ok && !knows(v, p) {
			return true // climb toward the root
		}
		for _, c := range children[v] {
			if !knows(v, c) {
				return true
			}
		}
		for _, w := range responsible[v] {
			if !knows(v, w) {
				return true
			}
		}
		return false
	}

	fo := cfg.Faults
	var attempts, nextTry []int
	if fo != nil {
		attempts = make([]int, n)
		nextTry = make([]int, n)
	}
	// Retransmission bookkeeping exists only when someone is watching:
	// sent[] and the stat locals feed the reliable.* counters and the
	// trace events, and an unobserved run allocates neither.
	tr := cfg.Tracer
	measure := tr != nil || obs.Enabled()
	var sent []bool
	if measure {
		sent = make([]bool, n)
	}
	var cRetrans, cRetransRounds, cBackoff, cFFJumps, cFFRounds int64
	// owes counts the peers v still has to reach — the retransmit events'
	// payload. Only called under a tracer.
	owes := func(v int) int {
		c := 0
		if !t.Nodes.Has(v) {
			for _, u := range g.Neighbors(v) {
				if t.Nodes.Has(int(u)) && !knows(v, int(u)) {
					c++
				}
			}
			return c
		}
		if p, ok := parentOf(v); ok && !knows(v, p) {
			c++
		}
		for _, x := range children[v] {
			if !knows(v, x) {
				c++
			}
		}
		for _, w := range responsible[v] {
			if !knows(v, w) {
				c++
			}
		}
		return c
	}
	fastForward := fo != nil && !cfg.noFastForward
	// stallRounds bounds how long a faulted run keeps retrying without a
	// single new delivery or acknowledgement before conceding degradation.
	// It comfortably exceeds the backoff cap (8) plus any realistic outage
	// the retransmission budget is meant to ride out.
	const stallRounds = 64

	res := &Result{}
	lastProgress := 0
	for round := 1; round <= maxRounds; round++ {
		var senders []int
		for v := 0; v < n; v++ {
			if !wantsToSend(v) {
				continue
			}
			if fo != nil {
				if !fo.NodeUp(v, round) {
					continue // crashed
				}
				if round < nextTry[v] {
					cBackoff++
					continue // backing off after lost retries
				}
			}
			senders = append(senders, v)
		}
		if len(senders) == 0 && fo == nil {
			break
		}
		if fo != nil && round-lastProgress > stallRounds {
			if tr != nil {
				uncovered := 0
				for v := 0; v < n; v++ {
					if !has[v] {
						uncovered++
					}
				}
				tr.Stall(round, uncovered)
			}
			break // nobody is getting through; the tree is severed
		}
		if len(senders) == 0 {
			// Everyone owed something is down or backing off; idle until a
			// sender can get back on the air. Quiescence under faults means
			// nobody *wants* to send at all.
			idle := true
			next := maxRounds + 1
			for v := 0; v < n; v++ {
				if !wantsToSend(v) {
					continue
				}
				idle = false
				if !fastForward {
					break
				}
				// v's first eligible round: past its backoff, then alive.
				r := round + 1
				if nextTry[v] > r {
					r = nextTry[v]
				}
				if r = fo.NextUp(v, r); r < next {
					next = r
				}
			}
			if idle {
				break
			}
			if fastForward {
				// Jump to the earliest eligible round — capped at the round
				// the stall check above would concede at, so a severed tree
				// still degrades at the identical point. Every skipped round
				// provably had no eligible sender, making the jump invisible
				// to the result.
				if cap := lastProgress + stallRounds + 1; next > cap {
					next = cap
				}
				if next > round+1 {
					cFFJumps++
					cFFRounds += int64(next - 1 - round)
					round = next - 1
				}
			}
			continue
		}
		res.Rounds = round
		retransInRound := false
		for _, s := range senders {
			res.Transmissions++
			if measure {
				if sent[s] {
					cRetrans++
					retransInRound = true
					if tr != nil {
						tr.Retransmit(round, s, owes(s))
					}
				}
				sent[s] = true
			}
			if fo != nil {
				attempts[s]++
				backoff := 1 << (attempts[s] - 1)
				if backoff > 8 {
					backoff = 8
				}
				nextTry[s] = round + backoff
			}
			for _, v32 := range g.Neighbors(s) {
				v := int(v32)
				if loss.Bool(cfg.Loss) {
					continue
				}
				if fo != nil && !fo.Delivers(s, v, round) {
					continue // receiver down, partitioned away, or a loss burst
				}
				if !has[v] {
					has[v] = true
					lastProgress = round
				}
				confirm(v, s) // hearing the packet from s proves s holds it
				// v acknowledges the senders that wait on it: its parent
				// pushing down, its dominator, its child pushing up, or an
				// off-tree source booting the dissemination.
				pv, okv := parentOf(v)
				ps, oks := parentOf(s)
				waiting := (okv && pv == s) || dominator[v] == s || (oks && ps == v) ||
					(s == source && !t.Nodes.Has(source) && t.Nodes.Has(v))
				if waiting && !knows(s, v) {
					confirm(s, v)
					res.Acks++
					lastProgress = round
					if fo != nil {
						attempts[s] = 0 // fresh progress resets the backoff
						nextTry[s] = 0
					}
				}
			}
		}
		if retransInRound {
			cRetransRounds++
		}
	}

	res.Delivered = true
	for v := 0; v < n; v++ {
		if !has[v] {
			res.Delivered = false
			break
		}
	}
	res.Degraded = fo != nil && !res.Delivered
	mRuns.Inc()
	mTransmissions.Add(int64(res.Transmissions))
	mAcks.Add(int64(res.Acks))
	mRetrans.Add(cRetrans)
	mRetransRounds.Add(cRetransRounds)
	mBackoffWaits.Add(cBackoff)
	mFFJumps.Add(cFFJumps)
	mFFRounds.Add(cFFRounds)
	if res.Degraded {
		mDegraded.Inc()
	}
	return res, nil
}
