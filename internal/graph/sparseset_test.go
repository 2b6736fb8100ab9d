package graph

import (
	"math/rand"
	"sort"
	"testing"
)

func TestSparseSetBasics(t *testing.T) {
	s := NewSparseSet(100)
	if s.Any() || s.Count() != 0 || s.Min() != -1 {
		t.Fatal("new set not empty")
	}
	for _, v := range []int{5, 3, 99, 0, 3, 5} {
		s.Add(v)
	}
	if got := s.Members(); len(got) != 4 {
		t.Fatalf("members %v, want {0,3,5,99}", got)
	}
	if !sort.IntsAreSorted(s.Members()) {
		t.Fatalf("members not ascending: %v", s.Members())
	}
	if !s.Has(99) || s.Has(98) || s.Min() != 0 {
		t.Fatal("membership queries wrong")
	}
	s.Remove(0)
	s.Remove(42) // absent: no-op
	if s.Min() != 3 || s.Count() != 3 {
		t.Fatalf("after removal: min %d count %d", s.Min(), s.Count())
	}
	s.Clear()
	if s.Any() {
		t.Fatal("clear left members")
	}
}

func TestSparseSetAgainstMap(t *testing.T) {
	const n = 200
	r := rand.New(rand.NewSource(7))
	s := NewSparseSet(n)
	ref := map[int]bool{}
	for step := 0; step < 3000; step++ {
		v := r.Intn(n)
		if r.Intn(3) == 0 {
			s.Remove(v)
			delete(ref, v)
		} else {
			s.Add(v)
			ref[v] = true
		}
		if s.Count() != len(ref) {
			t.Fatalf("step %d: count %d want %d", step, s.Count(), len(ref))
		}
		if s.Has(v) != ref[v] {
			t.Fatalf("step %d: Has(%d) = %v want %v", step, v, s.Has(v), ref[v])
		}
	}
	want := make([]int, 0, len(ref))
	for v := range ref {
		want = append(want, v)
	}
	sort.Ints(want)
	got := s.Members()
	if len(got) != len(want) {
		t.Fatalf("members %v want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("members %v want %v", got, want)
		}
	}
}

func TestSparseSetBinaryOps(t *testing.T) {
	n := 64
	a := SparseSetOf(n, 1, 3, 5, 7, 60)
	b := SparseSetOf(n, 3, 4, 5, 63)

	u := a.Clone()
	u.Or(b)
	if got, want := u.Members(), []int{1, 3, 4, 5, 7, 60, 63}; !equalInts(got, want) {
		t.Fatalf("or = %v, want %v", got, want)
	}
	i := a.Clone()
	i.And(b)
	if got, want := i.Members(), []int{3, 5}; !equalInts(got, want) {
		t.Fatalf("and = %v, want %v", got, want)
	}
	d := a.Clone()
	d.AndNot(b)
	if got, want := d.Members(), []int{1, 7, 60}; !equalInts(got, want) {
		t.Fatalf("andnot = %v, want %v", got, want)
	}
	if !a.Intersects(b) || a.IntersectionCount(b) != 2 {
		t.Fatal("intersection queries wrong")
	}
	if a.Equal(b) || !a.Equal(a.Clone()) {
		t.Fatal("equality wrong")
	}
}

func TestSparseSetCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on capacity mismatch")
		}
	}()
	NewSparseSet(10).Or(NewSparseSet(11))
}

func TestHybridSetPromotion(t *testing.T) {
	n := 256
	thr := hybridThreshold(n)
	h := NewHybridSet(n)
	for i := 0; i < thr; i++ { // count stays ≤ threshold: sparse throughout
		h.Add(i)
		if h.Dense() {
			t.Fatalf("promoted at %d members, threshold is %d", i+1, thr)
		}
	}
	h.Add(thr) // count exceeds the threshold
	if !h.Dense() {
		t.Fatalf("not promoted past threshold (%d members)", h.Count())
	}
	if h.Count() != thr+1 || !h.Has(0) || !h.Has(thr) {
		t.Fatal("promotion lost members")
	}
	// No demotion on removal; Reset drops back to sparse.
	h.Remove(0)
	if !h.Dense() {
		t.Fatal("demoted on removal")
	}
	h.Reset(n)
	if h.Dense() || h.Any() {
		t.Fatal("reset did not return to an empty sparse set")
	}
}

// ResetSorted gives the members Add would, promotes at the same count,
// and leaves the arena regions beside the adopted carve untouched.
func TestHybridSetResetSorted(t *testing.T) {
	n := 256
	thr := hybridThreshold(n)
	arena := []int{3, 7, 9, 250, -1}
	h := HybridSetOf(n, 1, 2)
	h.ResetSorted(n, arena[0:4:4])
	if h.Dense() || !h.Equal(HybridSetOf(n, 3, 7, 9, 250)) {
		t.Fatalf("members %v, want [3 7 9 250]", h.Members())
	}
	h.Add(8)
	h.Add(251)
	if got, want := h.Members(), []int{3, 7, 8, 9, 250, 251}; !equalInts(got, want) || arena[4] != -1 {
		t.Fatalf("after adds: %v (arena tail %d), want %v", got, arena[4], want)
	}
	ids := make([]int, thr+1)
	for i := range ids {
		ids[i] = i
	}
	h.ResetSorted(n, ids[:thr])
	if h.Dense() || h.Count() != thr {
		t.Fatalf("%d members: dense=%v count=%d, want sparse %d", thr, h.Dense(), h.Count(), thr)
	}
	h.ResetSorted(n, ids)
	if !h.Dense() || h.Count() != thr+1 || !h.Has(thr) {
		t.Fatalf("%d members: dense=%v count=%d, want dense %d", thr+1, h.Dense(), h.Count(), thr+1)
	}
}

func TestHybridSetMixedRepOps(t *testing.T) {
	n := 512
	mk := func(dense bool, ids ...int) *HybridSet {
		h := HybridSetOf(n, ids...)
		if dense {
			h.promote()
		}
		if h.Dense() != dense {
			t.Fatalf("fixture density %v, want %v", h.Dense(), dense)
		}
		return h
	}
	for _, da := range []bool{false, true} {
		for _, db := range []bool{false, true} {
			a := mk(da, 1, 5, 9, 100)
			b := mk(db, 5, 6, 100, 511)
			u := a.Clone()
			u.Or(b)
			if got, want := u.Members(), []int{1, 5, 6, 9, 100, 511}; !equalInts(got, want) {
				t.Fatalf("dense=%v/%v: or = %v, want %v", da, db, got, want)
			}
			i := a.Clone()
			i.And(b)
			if got, want := i.Members(), []int{5, 100}; !equalInts(got, want) {
				t.Fatalf("dense=%v/%v: and = %v, want %v", da, db, got, want)
			}
			d := a.Clone()
			d.AndNot(b)
			if got, want := d.Members(), []int{1, 9}; !equalInts(got, want) {
				t.Fatalf("dense=%v/%v: andnot = %v, want %v", da, db, got, want)
			}
			if !a.Intersects(b) || a.IntersectionCount(b) != 2 {
				t.Fatalf("dense=%v/%v: intersection queries wrong", da, db)
			}
			if !a.Equal(mk(!da, 1, 5, 9, 100)) {
				t.Fatalf("dense=%v: cross-representation Equal failed", da)
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
