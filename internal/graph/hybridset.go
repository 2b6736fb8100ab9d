package graph

// HybridSet is the adaptive set representation of the backbone pipeline:
// it starts as a SparseSet (sorted member slice, O(members) operations)
// and promotes itself to a dense Bitset once the member count crosses a
// density threshold, after which word-parallel Bitset kernels take over.
// It never demotes until the next Reset — a set that got dense once tends
// to stay dense for the rest of its replicate, and demotion churn would
// cost more than it saves.
//
// The threshold is where the representations' costs cross: a Bitset
// operation always walks ≥ count/64 words plus touches count/64-ish cache
// lines, a SparseSet operation walks its members. With
// threshold(n) = 64 + n/64, sets up to a neighborhood in size (the C²/C³
// coverage sets, per-head need sets and gateway selections of radio
// graphs) stay sparse at every n, while anything approaching a constant
// fraction of the universe — where sparse merges would degenerate —
// becomes a Bitset.
//
// Iteration visits members in ascending order in both representations, so
// the deterministic "lowest ID first" greedy semantics are identical to
// the pure-Bitset path (proven by the fuzz agreement test and the golden
// pipeline equivalence tests).
//
// All binary operations require operands created with the same capacity.
// The zero value is an empty set of capacity 0; use NewHybridSet.
type HybridSet struct {
	n     int
	dense bool
	sp    SparseSet
	bits  Bitset
}

// hybridThreshold returns the member count past which a HybridSet over
// 0..n−1 promotes to the dense representation.
func hybridThreshold(n int) int { return 64 + n/64 }

// NewHybridSet returns an empty set over the universe 0..n−1.
func NewHybridSet(n int) *HybridSet {
	if n < 0 {
		panic("graph: negative hybrid set capacity")
	}
	h := &HybridSet{n: n}
	h.sp.n = n
	return h
}

// HybridSetOf returns a set over 0..n−1 holding the given ids.
func HybridSetOf(n int, ids ...int) *HybridSet {
	h := NewHybridSet(n)
	for _, id := range ids {
		h.Add(id)
	}
	return h
}

// Cap returns the capacity of the universe (n in NewHybridSet).
func (h *HybridSet) Cap() int { return h.n }

// Dense reports whether the set currently uses the dense representation.
func (h *HybridSet) Dense() bool { return h.dense }

// Reset re-capacities h to the universe 0..n−1 and empties it, dropping
// back to the sparse representation. O(1) plus the O(touched) Bitset clear
// when the set was dense.
func (h *HybridSet) Reset(n int) {
	if n < 0 {
		panic("graph: negative hybrid set capacity")
	}
	h.n = n
	h.dense = false
	h.sp.Reset(n)
}

// promote switches h to the dense representation, carrying the members
// over. The sparse storage is kept for reuse after the next Reset.
func (h *HybridSet) promote() {
	h.bits.Reset(h.n)
	for _, v := range h.sp.ids {
		h.bits.Add(v)
	}
	h.sp.Clear()
	h.dense = true
}

// maybePromote promotes once the sparse member count crosses the density
// threshold.
func (h *HybridSet) maybePromote() {
	if !h.dense && len(h.sp.ids) > hybridThreshold(h.n) {
		h.promote()
	}
}

// Add inserts i into the set.
func (h *HybridSet) Add(i int) {
	if h.dense {
		h.bits.Add(i)
		return
	}
	h.sp.Add(i)
	h.maybePromote()
}

// Remove deletes i from the set.
func (h *HybridSet) Remove(i int) {
	if h.dense {
		h.bits.Remove(i)
		return
	}
	h.sp.Remove(i)
}

// Has reports whether i is a member. Out-of-range ids are never members.
func (h *HybridSet) Has(i int) bool {
	if h.dense {
		return h.bits.Has(i)
	}
	return h.sp.Has(i)
}

// Count returns the number of members.
func (h *HybridSet) Count() int {
	if h.dense {
		return h.bits.Count()
	}
	return h.sp.Count()
}

// Any reports whether the set is non-empty.
func (h *HybridSet) Any() bool {
	if h.dense {
		return h.bits.Any()
	}
	return h.sp.Any()
}

// Min returns the smallest member, or −1 when the set is empty.
func (h *HybridSet) Min() int {
	if h.dense {
		return h.bits.Min()
	}
	return h.sp.Min()
}

// Clear empties the set in place, keeping the current representation's
// storage but dropping back to sparse mode.
func (h *HybridSet) Clear() {
	if h.dense {
		h.bits.Clear()
		h.dense = false
	}
	h.sp.Clear()
}

// CopyFrom overwrites h with the contents of o (same capacity required),
// adopting o's representation.
func (h *HybridSet) CopyFrom(o *HybridSet) {
	h.check(o)
	if o.dense {
		if !h.dense {
			h.bits.Reset(h.n)
			h.sp.Clear()
			h.dense = true
		}
		h.bits.CopyFrom(&o.bits)
		return
	}
	if h.dense {
		h.dense = false
	}
	h.sp.CopyFrom(&o.sp)
}

// CopyBitset overwrites h with the contents of a dense Bitset of the same
// capacity. Members arrive in ascending order, so the sparse fill is
// O(members) with promotion if the count crosses the threshold.
func (h *HybridSet) CopyBitset(o *Bitset) {
	if h.n != o.Cap() {
		panic("graph: hybrid set capacity mismatch")
	}
	h.Reset(h.n)
	o.ForEach(h.Add)
}

// Clone returns an independent copy of h.
func (h *HybridSet) Clone() *HybridSet {
	c := NewHybridSet(h.n)
	c.CopyFrom(h)
	return c
}

// Or adds every member of o to h (set union, in place).
func (h *HybridSet) Or(o *HybridSet) {
	h.check(o)
	switch {
	case h.dense && o.dense:
		h.bits.Or(&o.bits)
	case h.dense:
		for _, v := range o.sp.ids {
			h.bits.Add(v)
		}
	case o.dense:
		// The union is at least as big as o was when it promoted; join it
		// in dense form.
		h.promote()
		h.bits.Or(&o.bits)
	default:
		h.sp.Or(&o.sp)
		h.maybePromote()
	}
}

// And keeps only members shared with o (set intersection, in place). The
// result never grows, so a sparse h stays sparse.
func (h *HybridSet) And(o *HybridSet) {
	h.check(o)
	switch {
	case h.dense && o.dense:
		h.bits.And(&o.bits)
	case !h.dense && o.dense:
		out := h.sp.ids[:0]
		for _, v := range h.sp.ids {
			if o.bits.Has(v) {
				out = append(out, v)
			}
		}
		h.sp.ids = out
	case h.dense && !o.dense:
		// Filter o's members by h, then rebuild h's bitset from the
		// survivors: O(|o| + touched words), and h stays dense per the
		// no-demotion policy.
		keep := h.sp.tmp[:0]
		for _, v := range o.sp.ids {
			if h.bits.Has(v) {
				keep = append(keep, v)
			}
		}
		h.bits.Clear()
		for _, v := range keep {
			h.bits.Add(v)
		}
		h.sp.tmp = keep[:0]
	default:
		h.sp.And(&o.sp)
	}
}

// AndNot removes every member of o from h (set difference, in place).
func (h *HybridSet) AndNot(o *HybridSet) {
	h.check(o)
	switch {
	case h.dense && o.dense:
		h.bits.AndNot(&o.bits)
	case !h.dense && o.dense:
		out := h.sp.ids[:0]
		for _, v := range h.sp.ids {
			if !o.bits.Has(v) {
				out = append(out, v)
			}
		}
		h.sp.ids = out
	case h.dense && !o.dense:
		for _, v := range o.sp.ids {
			h.bits.Remove(v)
		}
	default:
		h.sp.AndNot(&o.sp)
	}
}

// Intersects reports whether h and o share a member.
func (h *HybridSet) Intersects(o *HybridSet) bool {
	h.check(o)
	switch {
	case h.dense && o.dense:
		return h.bits.Intersects(&o.bits)
	case !h.dense && o.dense:
		for _, v := range h.sp.ids {
			if o.bits.Has(v) {
				return true
			}
		}
		return false
	case h.dense && !o.dense:
		for _, v := range o.sp.ids {
			if h.bits.Has(v) {
				return true
			}
		}
		return false
	default:
		return h.sp.Intersects(&o.sp)
	}
}

// IntersectionCount returns |h ∩ o| without materializing the
// intersection.
func (h *HybridSet) IntersectionCount(o *HybridSet) int {
	h.check(o)
	switch {
	case h.dense && o.dense:
		return h.bits.IntersectionCount(&o.bits)
	case !h.dense && o.dense:
		c := 0
		for _, v := range h.sp.ids {
			if o.bits.Has(v) {
				c++
			}
		}
		return c
	case h.dense && !o.dense:
		c := 0
		for _, v := range o.sp.ids {
			if h.bits.Has(v) {
				c++
			}
		}
		return c
	default:
		return h.sp.IntersectionCount(&o.sp)
	}
}

// Equal reports whether h and o hold exactly the same members, regardless
// of representation.
func (h *HybridSet) Equal(o *HybridSet) bool {
	if h.n != o.n {
		return false
	}
	switch {
	case h.dense && o.dense:
		return h.bits.Equal(&o.bits)
	case !h.dense && !o.dense:
		return h.sp.Equal(&o.sp)
	default:
		sp, dn := h, o
		if h.dense {
			sp, dn = o, h
		}
		if len(sp.sp.ids) != dn.bits.Count() {
			return false
		}
		for _, v := range sp.sp.ids {
			if !dn.bits.Has(v) {
				return false
			}
		}
		return true
	}
}

// ForEach calls fn for every member in ascending order.
func (h *HybridSet) ForEach(fn func(i int)) {
	if h.dense {
		h.bits.ForEach(fn)
		return
	}
	h.sp.ForEach(fn)
}

// Members returns the members in ascending order as a fresh slice.
func (h *HybridSet) Members() []int {
	if h.dense {
		return h.bits.Members()
	}
	return h.sp.Members()
}

// AddTo adds every member of h to the dense set dst (same capacity
// required): the bridge from the hybrid pipeline sets to the dense
// accumulators (backbone membership, broadcast node sets) that stay
// Bitset-typed.
func (h *HybridSet) AddTo(dst *Bitset) {
	if h.n != dst.Cap() {
		panic("graph: hybrid set capacity mismatch")
	}
	if h.dense {
		dst.Or(&h.bits)
		return
	}
	for _, v := range h.sp.ids {
		dst.Add(v)
	}
}

// ToBitset materializes h as a fresh dense Bitset.
func (h *HybridSet) ToBitset() *Bitset {
	b := NewBitset(h.n)
	h.AddTo(b)
	return b
}

// check panics on capacity mismatch, mirroring Bitset.check.
func (h *HybridSet) check(o *HybridSet) {
	if h.n != o.n {
		panic("graph: hybrid set capacity mismatch")
	}
}
