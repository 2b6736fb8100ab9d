package graph

import "math/bits"

// Bitset is a fixed-capacity set of small non-negative integers (node IDs)
// backed by a []uint64. It is the dense-ID replacement for map[int]bool in
// the simulator's hot paths: membership, union, difference and popcount all
// run word-at-a-time, and iteration visits members in ascending order with
// no sorting or hashing.
//
// Every word at index ≥ hi is zero: hi is a touched-word high-water mark
// maintained by the mutating operations, so clearing, scanning and copying
// a set cost O(touched words), not O(capacity words). A nearly empty set
// over a 100k-node universe resets in a handful of word writes instead of
// 1563 — the difference between O(deg) and Θ(n) per reset at scale.
//
// All binary operations require operands created with the same capacity.
// The zero value is an empty set of capacity 0; use NewBitset.
type Bitset struct {
	words []uint64
	n     int // capacity in bits
	hi    int // words[hi:] are all zero
}

// NewBitset returns an empty set over the universe 0..n−1.
func NewBitset(n int) *Bitset {
	if n < 0 {
		panic("graph: negative bitset capacity")
	}
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// BitsetFromSet converts a membership map over 0..n−1.
func BitsetFromSet(n int, set map[int]bool) *Bitset {
	b := NewBitset(n)
	for v, in := range set {
		if in {
			b.Add(v)
		}
	}
	return b
}

// Cap returns the capacity of the universe (n in NewBitset).
func (b *Bitset) Cap() int { return b.n }

// Reset re-capacities b to the universe 0..n−1 and empties it, reusing the
// word storage when it suffices. It is the workspace-reuse companion of
// NewBitset: a bitset owned by a per-worker workspace is Reset at the start
// of each replicate, so steady-state replicates allocate nothing even when
// the swept network size changes between calls. Only words up to the
// high-water mark are zeroed, so resetting a sparsely used set is O(touched
// words) regardless of capacity.
func (b *Bitset) Reset(n int) {
	if n < 0 {
		panic("graph: negative bitset capacity")
	}
	words := (n + 63) / 64
	if cap(b.words) < words {
		b.words = make([]uint64, words)
		b.n = n
		b.hi = 0
		return
	}
	// Zero through the high-water mark over the full-capacity view: a
	// previous Reset may have shrunk the visible slice below hi's words,
	// but the dirty words still sit in the shared backing array.
	full := b.words[:cap(b.words)]
	for i := 0; i < b.hi; i++ {
		full[i] = 0
	}
	b.words = full[:words]
	b.n = n
	b.hi = 0
}

// Add inserts i into the set.
func (b *Bitset) Add(i int) {
	w := i >> 6
	b.words[w] |= 1 << (uint(i) & 63)
	if w >= b.hi {
		b.hi = w + 1
	}
}

// Remove deletes i from the set.
func (b *Bitset) Remove(i int) { b.words[i>>6] &^= 1 << (uint(i) & 63) }

// Has reports whether i is a member. Out-of-range ids are never members.
func (b *Bitset) Has(i int) bool {
	if i < 0 || i >= b.n {
		return false
	}
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Count returns the number of members.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words[:b.hi] {
		c += bits.OnesCount64(w)
	}
	return c
}

// Min returns the smallest member, or −1 when the set is empty. It is the
// deterministic "lowest ID first" iteration anchor of the greedy selection.
func (b *Bitset) Min() int {
	for i, w := range b.words[:b.hi] {
		if w != 0 {
			return i<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// CopyFrom overwrites b with the contents of o (same capacity required).
func (b *Bitset) CopyFrom(o *Bitset) {
	b.check(o)
	copy(b.words[:o.hi], o.words[:o.hi])
	for i := o.hi; i < b.hi; i++ {
		b.words[i] = 0
	}
	b.hi = o.hi
}

// Or adds every member of o to b (set union, in place).
func (b *Bitset) Or(o *Bitset) {
	b.check(o)
	for i, w := range o.words[:o.hi] {
		b.words[i] |= w
	}
	if o.hi > b.hi {
		b.hi = o.hi
	}
}

// AndNot removes every member of o from b (set difference, in place).
func (b *Bitset) AndNot(o *Bitset) {
	b.check(o)
	lo := b.hi
	if o.hi < lo {
		lo = o.hi
	}
	for i := 0; i < lo; i++ {
		b.words[i] &^= o.words[i]
	}
}

// ForEach calls fn for every member in ascending order.
func (b *Bitset) ForEach(fn func(i int)) {
	for wi, w := range b.words[:b.hi] {
		for w != 0 {
			fn(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// Members returns the members in ascending order as a fresh slice.
func (b *Bitset) Members() []int {
	out := make([]int, 0, b.Count())
	b.ForEach(func(i int) { out = append(out, i) })
	return out
}

// check panics on capacity mismatch: silently operating on differently
// sized universes is always a caller bug.
func (b *Bitset) check(o *Bitset) {
	if b.n != o.n {
		panic("graph: bitset capacity mismatch")
	}
}
