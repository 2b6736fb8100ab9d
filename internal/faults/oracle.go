package faults

import (
	"math"
	"sort"

	"clustercast/internal/geom"
	"clustercast/internal/obs"
	"clustercast/internal/rng"
)

// Oracle answers per-slot node and link state queries for one fault
// schedule. It memoizes lazily: churn timelines extend on demand per node,
// and each link's loss chain advances slot by slot as it is queried. Node,
// link and channel state is a pure function of (Spec, node/link, slot) —
// the per-slot transition coins are hashed, not streamed — so query order
// never changes those answers. The per-copy loss coins of CopyLost are
// the exception: they are numbered in query order within a link's slot,
// and a later engine run that queries the slot the memo sits at continues
// that count. So an oracle serves one engine run, or one sequence of runs
// whose outcomes are read together; independent runs each take their own.
// An oracle is single-goroutine state, like the engine workspaces it rides
// along with; replication gives each replicate its own.
type Oracle struct {
	spec Spec
	n    int
	pos  []geom.Point

	churn []nodeChurn
	links map[uint64]*linkChain

	lossy bool // any nonzero loss parameter
}

// nodeChurn is one node's lazily extended up/down timeline: toggles[i] is
// the time of the i-th state flip, the node starts up, so it is up on
// [0, toggles[0]), down on [toggles[0], toggles[1]), and so on.
type nodeChurn struct {
	r       *rng.Stream
	toggles []float64
	idx     int // cursor of the last lookup (queries are nearly monotone)
}

// linkChain is the memoized Gilbert–Elliott state of one undirected link.
type linkChain struct {
	slot int    // absolute slot the chain has advanced to
	bad  bool   // current channel state
	nq   uint64 // per-copy query counter within the current slot
}

// New builds an oracle for n nodes under the given spec. Specs with
// partitions also need SetPositions before link queries.
func New(spec Spec, n int) *Oracle {
	o := &Oracle{
		spec:  spec,
		n:     n,
		lossy: spec.LossGood > 0 || (spec.PGoodBad > 0 && spec.LossBad > 0),
	}
	if spec.MeanUp > 0 {
		o.churn = make([]nodeChurn, n)
	}
	if o.lossy {
		o.links = make(map[uint64]*linkChain)
	}
	return o
}

// SetPositions attaches node coordinates, which scripted partitions need to
// decide which side of the cut each endpoint is on. Partition clauses are
// ignored until positions are set.
func (o *Oracle) SetPositions(pos []geom.Point) { o.pos = pos }

// mix64 is the splitmix64/murmur finalizer used to hash coin identities.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

// coin maps a (seed, a, b, c) identity to a uniform float64 in [0, 1).
func coin(seed, a, b, c uint64) float64 {
	h := mix64(seed ^ mix64(a*0x9E3779B97F4A7C15^b) ^ c*0xFF51AFD7ED558CCD)
	return float64(h>>11) / (1 << 53)
}

// extendChurn grows v's toggle timeline until it covers absolute time T.
func (o *Oracle) extendChurn(v int, T float64) *nodeChurn {
	c := &o.churn[v]
	if c.r == nil {
		c.r = rng.NewLabeled(o.spec.Seed^uint64(v)*0x9E3779B97F4A7C15, "faults-churn")
	}
	for len(c.toggles) == 0 || c.toggles[len(c.toggles)-1] <= T {
		last := 0.0
		if len(c.toggles) > 0 {
			last = c.toggles[len(c.toggles)-1]
		}
		var mean float64
		if len(c.toggles)%2 == 0 {
			mean = o.spec.MeanUp // currently up: draw time to the next crash
		} else {
			mean = o.spec.MeanDown
		}
		d := c.r.ExpFloat64() * mean
		if d < 1e-9 {
			d = 1e-9 // a zero-length period would stall the extension loop
		}
		c.toggles = append(c.toggles, last+d)
	}
	return c
}

// NodeUp reports whether node v is alive in slot t. Without churn every
// node is always up.
func (o *Oracle) NodeUp(v, t int) bool {
	if o == nil || o.churn == nil {
		return true
	}
	T := float64(t + o.spec.Warmup)
	c := o.extendChurn(v, T)
	// Count toggles at or before T, resuming from the last cursor: engine
	// queries move forward a slot at a time, so this is O(1) amortized.
	i := c.idx
	if i > len(c.toggles) {
		i = len(c.toggles)
	}
	for i > 0 && c.toggles[i-1] > T {
		i--
	}
	for i < len(c.toggles) && c.toggles[i] <= T {
		i++
	}
	c.idx = i
	return i%2 == 0
}

// NextUp returns the first slot r ≥ t in which node v is alive (t itself
// when it already is, or always, absent a churn schedule). Like NodeUp
// the answer is a pure function of (spec, v, r), so engines can use it to
// fast-forward over an outage instead of polling NodeUp slot by slot.
func (o *Oracle) NextUp(v, t int) int {
	if o == nil || o.churn == nil {
		return t
	}
	for {
		T := float64(t + o.spec.Warmup)
		c := o.extendChurn(v, T)
		i := c.idx
		if i > len(c.toggles) {
			i = len(c.toggles)
		}
		for i > 0 && c.toggles[i-1] > T {
			i--
		}
		for i < len(c.toggles) && c.toggles[i] <= T {
			i++
		}
		c.idx = i
		if i%2 == 0 {
			return t
		}
		// Down on [toggles[i-1], toggles[i]): the next chance is the first
		// slot whose absolute time reaches the recovery toggle. Loop in case
		// a sub-slot up period has already ended again by then.
		nt := int(math.Ceil(c.toggles[i])) - o.spec.Warmup
		if nt <= t {
			nt = t + 1
		}
		t = nt
	}
}

// LinkUp reports whether the (u, v) link is up in slot t — false only while
// a scripted partition separates the endpoints. Loss is separate: a link
// can be up and still drop a copy (CopyLost).
func (o *Oracle) LinkUp(u, v, t int) bool {
	if o == nil || len(o.spec.Partitions) == 0 || o.pos == nil {
		return true
	}
	pu, pv := o.pos[u], o.pos[v]
	for _, pt := range o.spec.Partitions {
		if t < pt.Start || t >= pt.End {
			continue
		}
		var cu, cv float64
		if pt.Vertical {
			cu, cv = pu.X, pv.X
		} else {
			cu, cv = pu.Y, pv.Y
		}
		if (cu < pt.Coord) != (cv < pt.Coord) {
			return false
		}
	}
	return true
}

// linkKey canonicalizes an undirected link.
func linkKey(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// chainAt advances (or rebuilds) the link's chain to the absolute slot.
func (o *Oracle) chainAt(key uint64, slot int) *linkChain {
	ch := o.links[key]
	if ch == nil {
		ch = &linkChain{}
		o.links[key] = ch
	}
	if slot < ch.slot {
		// Queried behind the memo (a fresh engine run on a reused oracle):
		// the chain is a pure function of the slot, so replay from zero.
		*ch = linkChain{}
	}
	for ch.slot < slot {
		p := o.spec.PGoodBad
		if ch.bad {
			p = o.spec.PBadGood
		}
		if coin(o.spec.Seed, key, uint64(ch.slot), 1) < p {
			ch.bad = !ch.bad
		}
		ch.slot++
		ch.nq = 0
	}
	return ch
}

// CopyLost draws the per-copy loss coin for a transmission from u heard by
// v in slot t: the Gilbert–Elliott chain of the (u, v) link decides the
// loss probability, and each copy in a slot gets its own coin.
func (o *Oracle) CopyLost(u, v, t int) bool {
	if o == nil || o.links == nil {
		return false
	}
	key := linkKey(u, v)
	ch := o.chainAt(key, t+o.spec.Warmup)
	p := o.spec.LossGood
	if ch.bad {
		p = o.spec.LossBad
	}
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	q := ch.nq
	ch.nq++
	return coin(o.spec.Seed, key, uint64(ch.slot), 2+q) < p
}

// Delivers reports whether the copy u transmits in slot t reaches v: v is
// up, the (u, v) link is up, and the copy's loss coin spares it. The tests
// run in that order and stop at the first that fails, so a copy to a down
// node or across a partition draws no loss coin.
func (o *Oracle) Delivers(u, v, t int) bool {
	return o.NodeUp(v, t) && o.LinkUp(u, v, t) && !o.CopyLost(u, v, t)
}

// TraceTransitions emits node-crash / node-recover trace events for the
// engine-slot window [t0, t1), in (time, node) order.
func (o *Oracle) TraceTransitions(tr *obs.Tracer, t0, t1 int) {
	if o == nil || o.churn == nil || tr == nil {
		return
	}
	lo, hi := float64(t0+o.spec.Warmup), float64(t1+o.spec.Warmup)
	type ev struct {
		t     float64
		v     int
		crash bool
	}
	var evs []ev
	for v := 0; v < o.n; v++ {
		c := o.extendChurn(v, hi)
		for i, tt := range c.toggles {
			if tt < lo {
				continue
			}
			if tt >= hi {
				break
			}
			evs = append(evs, ev{t: tt, v: v, crash: i%2 == 0})
		}
	}
	// Stable (time, node) order regardless of the per-node scan above.
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		return evs[i].v < evs[j].v
	})
	for _, e := range evs {
		slot := int(e.t) - o.spec.Warmup
		if e.crash {
			tr.NodeCrash(slot, e.v)
		} else {
			tr.NodeRecover(slot, e.v)
		}
	}
}

// Alive returns the liveness predicate of slot t, in the form
// backbone.Repair consumes.
func (o *Oracle) Alive(t int) func(int) bool {
	return func(v int) bool { return o.NodeUp(v, t) }
}

// AliveCount counts the nodes alive in slot t.
func (o *Oracle) AliveCount(t int) int {
	if o == nil || o.churn == nil {
		return o.n
	}
	k := 0
	for v := 0; v < o.n; v++ {
		if o.NodeUp(v, t) {
			k++
		}
	}
	return k
}
