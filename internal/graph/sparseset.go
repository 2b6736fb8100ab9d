package graph

import "sort"

// SparseSet is a set of small non-negative integers (node IDs) stored as a
// sorted slice of members. It carries the same operation surface as Bitset
// but costs O(members), not O(capacity/64 words), per operation: for the
// neighborhood-sized sets of the backbone pipeline (|set| ≈ degree or the
// number of nearby clusterheads) that is the difference between O(deg) and
// Θ(n) work per clusterhead at 10k–100k nodes.
//
// Members are kept strictly ascending, so iteration order matches Bitset's
// and the greedy selections' "lowest ID first" determinism is preserved.
//
// All binary operations require operands created with the same capacity.
// The zero value is an empty set of capacity 0; use NewSparseSet.
type SparseSet struct {
	ids []int // strictly ascending members
	n   int   // universe capacity
	tmp []int // merge scratch, swapped with ids by Or
}

// NewSparseSet returns an empty set over the universe 0..n−1.
func NewSparseSet(n int) *SparseSet {
	if n < 0 {
		panic("graph: negative sparse set capacity")
	}
	return &SparseSet{n: n}
}

// SparseSetOf returns a set over 0..n−1 holding the given ids.
func SparseSetOf(n int, ids ...int) *SparseSet {
	s := NewSparseSet(n)
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

// Reset re-capacities s to the universe 0..n−1 and empties it, keeping the
// member storage for reuse. Always O(1).
func (s *SparseSet) Reset(n int) {
	if n < 0 {
		panic("graph: negative sparse set capacity")
	}
	s.ids = s.ids[:0]
	s.n = n
}

// find returns the insertion index of i in the sorted member slice.
func (s *SparseSet) find(i int) int {
	lo, hi := 0, len(s.ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.ids[mid] < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Add inserts i into the set. Appends at the tail are O(1), so filling a
// set in ascending order costs O(members) total.
func (s *SparseSet) Add(i int) {
	if k := len(s.ids); k == 0 || i > s.ids[k-1] {
		s.ids = append(s.ids, i)
		return
	}
	at := s.find(i)
	if at < len(s.ids) && s.ids[at] == i {
		return
	}
	s.ids = append(s.ids, 0)
	copy(s.ids[at+1:], s.ids[at:])
	s.ids[at] = i
}

// Remove deletes i from the set.
func (s *SparseSet) Remove(i int) {
	at := s.find(i)
	if at < len(s.ids) && s.ids[at] == i {
		s.ids = append(s.ids[:at], s.ids[at+1:]...)
	}
}

// Has reports whether i is a member. Out-of-range ids are never members.
func (s *SparseSet) Has(i int) bool {
	at := s.find(i)
	return at < len(s.ids) && s.ids[at] == i
}

// Count returns the number of members.
func (s *SparseSet) Count() int { return len(s.ids) }

// Any reports whether the set is non-empty.
func (s *SparseSet) Any() bool { return len(s.ids) > 0 }

// Min returns the smallest member, or −1 when the set is empty.
func (s *SparseSet) Min() int {
	if len(s.ids) == 0 {
		return -1
	}
	return s.ids[0]
}

// Clear empties the set in place. Always O(1).
func (s *SparseSet) Clear() { s.ids = s.ids[:0] }

// CopyFrom overwrites s with the contents of o (same capacity required).
func (s *SparseSet) CopyFrom(o *SparseSet) {
	s.check(o)
	s.ids = append(s.ids[:0], o.ids...)
}

// Clone returns an independent copy of s.
func (s *SparseSet) Clone() *SparseSet {
	return &SparseSet{ids: append([]int(nil), s.ids...), n: s.n}
}

// Or adds every member of o to s (set union, in place): one linear merge
// into the swap buffer, O(|s| + |o|).
func (s *SparseSet) Or(o *SparseSet) {
	s.check(o)
	if len(o.ids) == 0 {
		return
	}
	if len(s.ids) == 0 {
		s.ids = append(s.ids[:0], o.ids...)
		return
	}
	out := s.tmp[:0]
	i, j := 0, 0
	for i < len(s.ids) && j < len(o.ids) {
		a, b := s.ids[i], o.ids[j]
		switch {
		case a < b:
			out = append(out, a)
			i++
		case a > b:
			out = append(out, b)
			j++
		default:
			out = append(out, a)
			i++
			j++
		}
	}
	out = append(out, s.ids[i:]...)
	out = append(out, o.ids[j:]...)
	s.tmp = s.ids[:0]
	s.ids = out
}

// And keeps only members shared with o (set intersection, in place).
func (s *SparseSet) And(o *SparseSet) {
	s.check(o)
	out := s.ids[:0]
	i, j := 0, 0
	for i < len(s.ids) && j < len(o.ids) {
		a, b := s.ids[i], o.ids[j]
		switch {
		case a < b:
			i++
		case a > b:
			j++
		default:
			out = append(out, a)
			i++
			j++
		}
	}
	s.ids = out
}

// AndNot removes every member of o from s (set difference, in place).
func (s *SparseSet) AndNot(o *SparseSet) {
	s.check(o)
	if len(o.ids) == 0 || len(s.ids) == 0 {
		return
	}
	out := s.ids[:0]
	j := 0
	for _, a := range s.ids {
		for j < len(o.ids) && o.ids[j] < a {
			j++
		}
		if j < len(o.ids) && o.ids[j] == a {
			continue
		}
		out = append(out, a)
	}
	s.ids = out
}

// Intersects reports whether s and o share a member.
func (s *SparseSet) Intersects(o *SparseSet) bool {
	s.check(o)
	i, j := 0, 0
	for i < len(s.ids) && j < len(o.ids) {
		a, b := s.ids[i], o.ids[j]
		switch {
		case a < b:
			i++
		case a > b:
			j++
		default:
			return true
		}
	}
	return false
}

// IntersectionCount returns |s ∩ o| without materializing the
// intersection.
func (s *SparseSet) IntersectionCount(o *SparseSet) int {
	s.check(o)
	c := 0
	i, j := 0, 0
	for i < len(s.ids) && j < len(o.ids) {
		a, b := s.ids[i], o.ids[j]
		switch {
		case a < b:
			i++
		case a > b:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

// Equal reports whether s and o hold exactly the same members.
func (s *SparseSet) Equal(o *SparseSet) bool {
	if s.n != o.n || len(s.ids) != len(o.ids) {
		return false
	}
	for i, v := range s.ids {
		if o.ids[i] != v {
			return false
		}
	}
	return true
}

// ForEach calls fn for every member in ascending order.
func (s *SparseSet) ForEach(fn func(i int)) {
	for _, v := range s.ids {
		fn(v)
	}
}

// Members returns the members in ascending order as a fresh slice.
func (s *SparseSet) Members() []int {
	return append([]int(nil), s.ids...)
}

// sorted is a debug helper: it verifies the strictly-ascending invariant.
func (s *SparseSet) sorted() bool { return sort.IntsAreSorted(s.ids) }

// check panics on capacity mismatch, mirroring Bitset.check.
func (s *SparseSet) check(o *SparseSet) {
	if s.n != o.n {
		panic("graph: sparse set capacity mismatch")
	}
}
