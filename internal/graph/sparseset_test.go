package graph

import (
	"math/rand"
	"sort"
	"testing"
)

func TestSparseSetBasics(t *testing.T) {
	s := NewSparseSet(100)
	if s.Count() != 0 || s.Cap() != 100 {
		t.Fatalf("new set: count %d cap %d, want 0 and 100", s.Count(), s.Cap())
	}
	for _, v := range []int{5, 3, 99, 0, 3, 5} {
		s.Add(v)
	}
	if got, want := s.Members(), []int{0, 3, 5, 99}; !equalInts(got, want) {
		t.Fatalf("members %v, want %v", got, want)
	}
	if !s.Has(99) || s.Has(98) {
		t.Fatal("membership queries wrong")
	}
	s.Remove(0)
	s.Remove(42) // absent: no-op
	if got, want := s.Members(), []int{3, 5, 99}; !equalInts(got, want) {
		t.Fatalf("after removal: %v, want %v", got, want)
	}
	s.Reset(10)
	if s.Count() != 0 || s.Cap() != 10 {
		t.Fatal("reset left members or kept the old capacity")
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
	a := sparseOf(n, 1, 3, 5, 7, 60)
	b := sparseOf(n, 3, 4, 5, 63)

	u := NewSparseSet(n)
	u.CopyFrom(a)
	u.Or(b)
	if got, want := u.Members(), []int{1, 3, 4, 5, 7, 60, 63}; !equalInts(got, want) {
		t.Fatalf("or = %v, want %v", got, want)
	}
	d := NewSparseSet(n)
	d.CopyFrom(a)
	d.AndNot(b)
	if got, want := d.Members(), []int{1, 7, 60}; !equalInts(got, want) {
		t.Fatalf("andnot = %v, want %v", got, want)
	}
	if got, want := a.Members(), []int{1, 3, 5, 7, 60}; !equalInts(got, want) {
		t.Fatalf("operand changed to %v, want %v", got, want)
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

// sparseOf returns a set over 0..n−1 holding the given ids.
func sparseOf(n int, ids ...int) *SparseSet {
	s := NewSparseSet(n)
	for _, id := range ids {
		s.Add(id)
	}
	return s
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
