package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130)
	if b.Count() != 0 || b.Min() != -1 {
		t.Fatal("fresh bitset must be empty")
	}
	for _, i := range []int{0, 63, 64, 129} {
		b.Add(i)
	}
	if got := b.Members(); !reflect.DeepEqual(got, []int{0, 63, 64, 129}) {
		t.Fatalf("Members = %v", got)
	}
	if b.Count() != 4 || b.Min() != 0 {
		t.Fatalf("Count=%d Min=%d", b.Count(), b.Min())
	}
	if !b.Has(64) || b.Has(65) || b.Has(-1) || b.Has(500) {
		t.Fatal("Has wrong")
	}
	b.Remove(0)
	b.Remove(64)
	if got := b.Members(); !reflect.DeepEqual(got, []int{63, 129}) {
		t.Fatalf("after Remove: %v", got)
	}
	if b.Min() != 63 {
		t.Fatalf("Min = %d", b.Min())
	}
	b.Reset(130)
	if b.Count() != 0 || b.Min() != -1 {
		t.Fatal("Reset left members")
	}
}

// bitsetOf returns a set over 0..n−1 holding the given ids.
func bitsetOf(n int, ids ...int) *Bitset {
	b := NewBitset(n)
	for _, id := range ids {
		b.Add(id)
	}
	return b
}

func TestBitsetSetOps(t *testing.T) {
	n := 200
	a := bitsetOf(n, 1, 5, 100, 150)
	b := bitsetOf(n, 5, 99, 150, 199)

	u := bitsetOf(n, 1, 5, 100, 150)
	u.Or(b)
	if got := u.Members(); !reflect.DeepEqual(got, []int{1, 5, 99, 100, 150, 199}) {
		t.Fatalf("Or = %v", got)
	}
	d := bitsetOf(n, 1, 5, 100, 150)
	d.AndNot(b)
	if got := d.Members(); !reflect.DeepEqual(got, []int{1, 100}) {
		t.Fatalf("AndNot = %v", got)
	}
	c := bitsetOf(n, 7, 199)
	c.CopyFrom(a)
	if got := c.Members(); !reflect.DeepEqual(got, a.Members()) {
		t.Fatalf("CopyFrom = %v", got)
	}
}

func TestBitsetAgainstMap(t *testing.T) {
	// Randomized cross-check of every operation against map semantics.
	r := rand.New(rand.NewSource(7))
	const n = 300
	for trial := 0; trial < 50; trial++ {
		ma, mb := map[int]bool{}, map[int]bool{}
		ba, bb := NewBitset(n), NewBitset(n)
		for k := 0; k < 120; k++ {
			v := r.Intn(n)
			if r.Intn(2) == 0 {
				ma[v] = true
				ba.Add(v)
			} else {
				mb[v] = true
				bb.Add(v)
			}
		}
		want := func(m map[int]bool) []int {
			out := []int{}
			for v := range m {
				out = append(out, v)
			}
			sort.Ints(out)
			return out
		}
		if got := ba.Members(); !reflect.DeepEqual(got, want(ma)) {
			t.Fatalf("trial %d: members %v != %v", trial, got, want(ma))
		}
		if ba.Count() != len(ma) {
			t.Fatalf("trial %d: count", trial)
		}
		diff := NewBitset(n)
		diff.CopyFrom(ba)
		diff.AndNot(bb)
		wantDiff := []int{}
		for v := range ma {
			if !mb[v] {
				wantDiff = append(wantDiff, v)
			}
		}
		sort.Ints(wantDiff)
		if got := diff.Members(); !reflect.DeepEqual(got, wantDiff) {
			t.Fatalf("trial %d: andnot %v != %v", trial, got, wantDiff)
		}
	}
}

func TestBitsetForEachOrder(t *testing.T) {
	b := bitsetOf(70, 69, 3, 3, 0, 64)
	var got []int
	b.ForEach(func(i int) { got = append(got, i) })
	if !reflect.DeepEqual(got, []int{0, 3, 64, 69}) {
		t.Fatalf("ForEach order = %v", got)
	}
}

func TestBitsetCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on capacity mismatch")
		}
	}()
	NewBitset(10).Or(NewBitset(11))
}

func TestScratchTraversals(t *testing.T) {
	// Path 0-1-2-3 plus isolated 4.
	g := FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	s := NewScratch(0) // deliberately undersized: must grow on demand
	if g.ConnectedWith(s) {
		t.Fatal("disconnected graph reported connected")
	}
	conn := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	for i := 0; i < 3; i++ { // reuse across traversals
		if !conn.ConnectedWith(s) {
			t.Fatal("connected graph reported disconnected")
		}
	}
	dist := map[int]int{}
	conn.BFSWith(s, 0, func(v, d int) { dist[v] = d })
	if !reflect.DeepEqual(dist, map[int]int{0: 0, 1: 1, 2: 2, 3: 3}) {
		t.Fatalf("BFSWith dist = %v", dist)
	}
}

func TestScratchMatchesBFS(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	s := NewScratch(0)
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(40)
		var edges [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Float64() < 0.12 {
					edges = append(edges, [2]int{u, v})
				}
			}
		}
		g := FromEdges(n, edges)
		want := g.BFS(0)
		got := make([]int, n)
		for i := range got {
			got[i] = -1
		}
		g.BFSWith(s, 0, func(v, d int) { got[v] = d })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: BFSWith %v != BFS %v", trial, got, want)
		}
		wantConn := true
		for _, d := range want {
			if d == -1 {
				wantConn = false
			}
		}
		if g.ConnectedWith(s) != wantConn {
			t.Fatalf("trial %d: connectivity mismatch", trial)
		}
	}
}

func TestInducedConnectedMatchesMapVersion(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	s := NewScratch(0)
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(30)
		var edges [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Float64() < 0.15 {
					edges = append(edges, [2]int{u, v})
				}
			}
		}
		g := FromEdges(n, edges)
		set := map[int]bool{}
		bs := NewBitset(n)
		for v := 0; v < n; v++ {
			if r.Intn(2) == 0 {
				set[v] = true
				bs.Add(v)
			}
		}
		// Independent naive oracles (the pre-bitset semantics).
		naiveDominating := func() bool {
			for u := 0; u < n; u++ {
				if set[u] {
					continue
				}
				ok := false
				for _, v := range g.Neighbors(u) {
					if set[int(v)] {
						ok = true
					}
				}
				if !ok {
					return false
				}
			}
			return true
		}
		naiveInduced := func() bool {
			var members []int
			for v := 0; v < n; v++ {
				if set[v] {
					members = append(members, v)
				}
			}
			if len(members) <= 1 {
				return true
			}
			seen := map[int]bool{members[0]: true}
			queue := []int{members[0]}
			for len(queue) > 0 {
				u := queue[0]
				queue = queue[1:]
				for _, v32 := range g.Neighbors(u) {
					if v := int(v32); set[v] && !seen[v] {
						seen[v] = true
						queue = append(queue, v)
					}
				}
			}
			return len(seen) == len(members)
		}
		naiveIndependent := func() bool {
			for u := range set {
				for _, v := range g.Neighbors(u) {
					if set[int(v)] {
						return false
					}
				}
			}
			return true
		}
		if got, want := g.InducedConnected(s, bs), naiveInduced(); got != want {
			t.Fatalf("trial %d: induced connectivity %v != %v for %v", trial, got, want, set)
		}
		if got, want := g.IsDominatingSet(bs), naiveDominating(); got != want {
			t.Fatalf("trial %d: dominating %v != %v", trial, got, want)
		}
		if got, want := g.IsIndependentSet(bs), naiveIndependent(); got != want {
			t.Fatalf("trial %d: independence %v != %v", trial, got, want)
		}
		if got, want := g.IsCDSBits(bs), naiveDominating() && naiveInduced(); got != want {
			t.Fatalf("trial %d: CDS %v != %v", trial, got, want)
		}
		if g.IsCDS(set) != g.IsCDSBits(bs) {
			t.Fatalf("trial %d: map CDS mismatch", trial)
		}
	}
}
