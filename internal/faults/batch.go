package faults

import "clustercast/internal/rng"

// Model is the per-slot fault interface the broadcast engines consult. The
// scalar *Oracle implements it (with nil-receiver-safe methods, so a typed
// nil injects nothing), and LaneModel implements it as the single-lane view
// of a 64-wide ChainBatch — which is how the batch/scalar equivalence suite
// runs the real dense engine against exactly the coins the batched kernels
// consume.
type Model interface {
	// NodeUp reports whether node v is alive in slot t.
	NodeUp(v, t int) bool
	// LinkUp reports whether the (u, v) link is up in slot t.
	LinkUp(u, v, t int) bool
	// CopyLost draws the per-copy loss coin for a transmission from u
	// heard by v in slot t.
	CopyLost(u, v, t int) bool
}

var _ Model = (*Oracle)(nil)

// BatchSupported reports whether the spec can drive the 64-wide replication
// path: pure link loss (i.i.d. or Gilbert–Elliott, warmup included). Node
// churn and scripted partitions change the engine's control flow per lane
// and stay on the scalar path.
func BatchSupported(spec Spec) bool {
	return spec.MeanUp <= 0 && len(spec.Partitions) == 0
}

// Coin identity domains of the batched randomness. Every batch coin is a
// pure function of (Spec.Seed, key, slot, domain) via the lane-indexed
// generator in internal/rng — no stream state — so the 64-wide kernels and
// a scalar lane-r reference read the very same words. The domains keep the
// identity spaces disjoint:
//
//	chain transitions use the undirected link key (one chain per link,
//	as in the scalar oracle); per-copy loss uses the *directed* key, so
//	the u→v and v→u copies of one slot draw independent coins. Covered
//	protocols transmit at most once per node per broadcast, so a
//	(directed link, slot) pair names at most one copy and no per-copy
//	query counter is needed.
const (
	domChainGB = 1 // good→bad transition coin, undirected link key
	domChainBG = 2 // bad→good transition coin, undirected link key
	domLossG   = 3 // per-copy loss coin in the good state, directed key
	domLossB   = 4 // per-copy loss coin in the bad state, directed key
)

// dirKey names a directed link.
func dirKey(u, v int) uint64 { return uint64(u)<<32 | uint64(v) }

// laneChain is the memoized 64-lane Gilbert–Elliott state of one undirected
// link: bit r of bad is lane r's channel state.
type laneChain struct {
	slot int
	bad  uint64
}

// ChainBatch advances 64 independent Gilbert–Elliott chains per link, one
// lane per replicate, and answers 64-wide per-copy loss queries. Like the
// scalar oracle it memoizes lazily per link and replays from slot zero when
// queried behind the memo — every answer is a pure function of
// (Spec, link, slot). Single-goroutine state; one per worker.
type ChainBatch struct {
	spec   Spec
	links  map[uint64]*laneChain
	static bool // no transitions: every lane stays in the good state
}

// NewChainBatch builds the 64-lane chain set for a spec (the caller is
// expected to have checked BatchSupported).
func NewChainBatch(spec Spec) *ChainBatch {
	return &ChainBatch{
		spec:   spec,
		links:  make(map[uint64]*laneChain),
		static: spec.PGoodBad <= 0,
	}
}

// chainWord returns the 64-lane bad-state word of the (u, v) link at the
// absolute slot (warmup already applied by the caller).
func (b *ChainBatch) chainWord(key uint64, slot int) uint64 {
	ch := b.links[key]
	if ch == nil {
		ch = &laneChain{}
		b.links[key] = ch
	}
	if slot < ch.slot {
		// Behind the memo (a lane-reference rerun): replay from zero.
		*ch = laneChain{}
	}
	for ch.slot < slot {
		s := uint64(ch.slot)
		flipGB := rng.BernoulliWord(b.spec.PGoodBad, b.spec.Seed, key, s, domChainGB)
		flipBG := rng.BernoulliWord(b.spec.PBadGood, b.spec.Seed, key, s, domChainBG)
		// Good lanes flip on their good→bad coin, bad lanes on bad→good:
		// each lane consumes only the coin matching its state, so every
		// lane follows the exact scalar transition law.
		ch.bad = (ch.bad &^ flipBG) | (^ch.bad & flipGB)
		ch.slot++
	}
	return ch.bad
}

// LossWord returns the 64-lane per-copy loss word for a transmission from u
// heard by v in slot t: bit r set means lane r's copy is lost. The
// Gilbert–Elliott chain of the undirected link decides each lane's loss
// probability; the copy coin itself is keyed by the directed link.
func (b *ChainBatch) LossWord(u, v, t int) uint64 {
	slot := uint64(t + b.spec.Warmup)
	key := dirKey(u, v)
	if b.static {
		// i.i.d. loss: no chain to advance, one Bernoulli word per copy.
		if b.spec.LossGood <= 0 {
			return 0
		}
		return rng.BernoulliWord(b.spec.LossGood, b.spec.Seed, key, slot, domLossG)
	}
	bad := b.chainWord(linkKey(u, v), t+b.spec.Warmup)
	if b.spec.LossGood <= 0 && b.spec.LossBad >= 1 {
		// The SetBurst family: the bad state always loses, the good state
		// never does — the chain word is the loss word.
		return bad
	}
	var lost uint64
	if b.spec.LossGood > 0 {
		lost |= ^bad & rng.BernoulliWord(b.spec.LossGood, b.spec.Seed, key, slot, domLossG)
	}
	if b.spec.LossBad > 0 {
		lost |= bad & rng.BernoulliWord(b.spec.LossBad, b.spec.Seed, key, slot, domLossB)
	}
	return lost
}

// LaneModel is the scalar, single-lane view of a ChainBatch: lane r of
// every coin word the batched kernels read, exposed through the Model
// interface so the unmodified dense engine can replay exactly one replicate
// of a 64-wide batch. This is the reference side of the batch/scalar
// equivalence suite.
type LaneModel struct {
	Batch *ChainBatch
	Lane  int
}

// NodeUp always reports alive: batch specs carry no churn.
func (m LaneModel) NodeUp(v, t int) bool { return true }

// LinkUp always reports up: batch specs carry no partitions.
func (m LaneModel) LinkUp(u, v, t int) bool { return true }

// CopyLost extracts this lane's bit of the batch loss word.
func (m LaneModel) CopyLost(u, v, t int) bool {
	return rng.Lane(m.Batch.LossWord(u, v, t), m.Lane)
}
