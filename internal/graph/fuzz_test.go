package graph

import (
	"slices"
	"testing"
)

// setTriple keeps one logical set in all three representations so the fuzz
// driver can apply every mutation to each and demand agreement.
type setTriple struct {
	b *Bitset
	s *SparseSet
	h *HybridSet
}

func newTriple(n int) *setTriple {
	return &setTriple{b: NewBitset(n), s: NewSparseSet(n), h: NewHybridSet(n)}
}

// agree fails the test unless the three representations hold exactly the
// same members in the same (ascending) iteration order.
func (tr *setTriple) agree(t *testing.T, tag string) {
	t.Helper()
	bm, sm, hm := tr.b.Members(), tr.s.Members(), tr.h.Members()
	if len(bm) != len(sm) || len(bm) != len(hm) {
		t.Fatalf("%s: member counts diverge: bitset %d sparse %d hybrid %d",
			tag, len(bm), len(sm), len(hm))
	}
	for i := range bm {
		if bm[i] != sm[i] || bm[i] != hm[i] {
			t.Fatalf("%s: members diverge at %d: bitset %d sparse %d hybrid %d",
				tag, i, bm[i], sm[i], hm[i])
		}
	}
	if c := tr.b.Count(); tr.s.Count() != c || tr.h.Count() != c {
		t.Fatalf("%s: counts diverge", tag)
	}
	if m := tr.b.Min(); tr.s.Min() != m || tr.h.Min() != m {
		t.Fatalf("%s: min diverges", tag)
	}
	if a := tr.b.Any(); tr.s.Any() != a || tr.h.Any() != a {
		t.Fatalf("%s: any diverges", tag)
	}
}

// FuzzSetRepsAgree drives randomized operation sequences against a Bitset,
// a SparseSet and a HybridSet in lockstep and demands identical members,
// iteration order, and query answers after every step — the property that
// lets the backbone kernels swap representations without changing a single
// greedy decision. Universe sizes up to ~300 cross the hybrid promotion
// threshold (64 + n/64), so the dense branch of HybridSet is exercised too.
// Run with `go test -fuzz=FuzzSetRepsAgree` for open-ended fuzzing; the
// seed corpus runs as a normal test.
func FuzzSetRepsAgree(f *testing.F) {
	f.Add([]byte{200, 0, 1, 0, 2, 0, 3, 1, 2, 3, 0})
	f.Add([]byte{50, 0, 0, 2, 0, 4, 1, 5, 0, 6, 0, 7, 0})
	f.Add([]byte{255, 2, 9, 2, 8, 3, 0, 4, 0, 5, 0, 8, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		n := int(data[0]) + 20 // 20..275: both sides of the promotion threshold
		a := newTriple(n)
		o := newTriple(n) // binary-op operand, mutated by its own ops
		for i := 1; i+1 < len(data); i += 2 {
			op, arg := data[i]%11, int(data[i+1])%n
			switch op {
			case 0: // bulk add: spread a run of members from one byte
				for k := 0; k < 8; k++ {
					v := (arg*7 + k*13) % n
					a.b.Add(v)
					a.s.Add(v)
					a.h.Add(v)
				}
			case 1:
				a.b.Remove(arg)
				a.s.Remove(arg)
				a.h.Remove(arg)
			case 2:
				for k := 0; k < 8; k++ {
					v := (arg*5 + k*11) % n
					o.b.Add(v)
					o.s.Add(v)
					o.h.Add(v)
				}
			case 3:
				a.b.Or(o.b)
				a.s.Or(o.s)
				a.h.Or(o.h)
			case 4:
				a.b.And(o.b)
				a.s.And(o.s)
				a.h.And(o.h)
			case 5:
				a.b.AndNot(o.b)
				a.s.AndNot(o.s)
				a.h.AndNot(o.h)
			case 6:
				a.b.Clear()
				a.s.Clear()
				a.h.Clear()
			case 7:
				a.b.CopyFrom(o.b)
				a.s.CopyFrom(o.s)
				a.h.CopyFrom(o.h)
			case 8: // cross-representation queries must agree
				if a.b.Has(arg) != a.s.Has(arg) || a.b.Has(arg) != a.h.Has(arg) {
					t.Fatalf("Has(%d) diverges", arg)
				}
				if a.b.Intersects(o.b) != a.s.Intersects(o.s) ||
					a.b.Intersects(o.b) != a.h.Intersects(o.h) {
					t.Fatal("Intersects diverges")
				}
				if c := a.b.IntersectionCount(o.b); a.s.IntersectionCount(o.s) != c ||
					a.h.IntersectionCount(o.h) != c {
					t.Fatal("IntersectionCount diverges")
				}
			case 9: // hybrid bridges: ToBitset/AddTo/CopyBitset round-trips
				if !a.h.ToBitset().Equal(a.b) {
					t.Fatal("ToBitset diverges from bitset")
				}
				rt := NewHybridSet(n)
				rt.CopyBitset(a.b)
				if !rt.Equal(a.h) {
					t.Fatal("CopyBitset round-trip diverges")
				}
			case 10: // reset to a fresh (same-capacity) universe
				a.b.Reset(n)
				a.s.Reset(n)
				a.h.Reset(n)
			}
			a.agree(t, "a")
			o.agree(t, "operand")
		}
	})
}

// FuzzGraphInvariants drives graph construction from arbitrary byte
// strings interpreted as edge lists and checks structural invariants. The
// deduplicated edge list inserted one AddEdge at a time also goes through
// the batch FromEdges, and the two CSR constructors must agree row for
// row. Run with `go test -fuzz=FuzzGraphInvariants` for open-ended
// fuzzing; the seed corpus runs as a normal test.
func FuzzGraphInvariants(f *testing.F) {
	f.Add([]byte{1, 2, 2, 3, 3, 1})
	f.Add([]byte{0, 1})
	f.Add([]byte{})
	f.Add([]byte{9, 9, 1, 0, 0, 1})
	f.Add([]byte{15, 0, 0, 15, 7, 3, 3, 15, 0, 7, 15, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 16
		g := New(n)
		var edges [][2]int
		for i := 0; i+1 < len(data); i += 2 {
			u, v := int(data[i])%n, int(data[i+1])%n
			if u != v && !g.HasEdge(u, v) {
				g.AddEdge(u, v)
				edges = append(edges, [2]int{u, v})
			}
		}
		batch := FromEdges(n, edges)
		if batch.M() != g.M() {
			t.Fatalf("FromEdges has %d edges, AddEdge %d", batch.M(), g.M())
		}
		for u := 0; u < n; u++ {
			if got, want := batch.Neighbors(u), g.Neighbors(u); !slices.Equal(got, want) {
				t.Fatalf("node %d: FromEdges row %v, AddEdge row %v", u, got, want)
			}
		}
		// Symmetry.
		for u := 0; u < n; u++ {
			for _, v := range g.Neighbors(u) {
				if !g.HasEdge(v, u) {
					t.Fatalf("edge {%d,%d} not symmetric", u, v)
				}
			}
		}
		// Edge count consistency.
		sum := 0
		for u := 0; u < n; u++ {
			sum += g.Degree(u)
		}
		if sum != 2*g.M() {
			t.Fatalf("degree sum %d != 2m %d", sum, 2*g.M())
		}
		// Components partition the nodes.
		seen := map[int]bool{}
		for _, comp := range g.Components() {
			for _, v := range comp {
				if seen[v] {
					t.Fatalf("node %d in two components", v)
				}
				seen[v] = true
			}
		}
		if len(seen) != n {
			t.Fatalf("components cover %d of %d nodes", len(seen), n)
		}
		// BFS distances are consistent with connectivity.
		dist := g.BFS(0)
		if g.Connected() {
			for v, d := range dist {
				if d < 0 {
					t.Fatalf("connected graph with unreachable node %d", v)
				}
			}
		}
		// The full vertex set dominates; on connected graphs it is a CDS.
		all := map[int]bool{}
		for i := 0; i < n; i++ {
			all[i] = true
		}
		if !g.IsDominatingSet(all) {
			t.Fatal("full set must dominate")
		}
	})
}
