package graph

import (
	"slices"
	"testing"
)

// setPair keeps one logical set as a Bitset, the reference, and as a
// SparseSet, so the fuzz driver can apply every mutation to both and
// demand agreement.
type setPair struct {
	b *Bitset
	s *SparseSet
}

func newPair(n int) *setPair {
	return &setPair{b: NewBitset(n), s: NewSparseSet(n)}
}

// agree fails the test unless the two representations hold exactly the
// same members in the same (ascending) iteration order.
func (p *setPair) agree(t *testing.T, tag string) {
	t.Helper()
	if bm, sm := p.b.Members(), p.s.Members(); !slices.Equal(bm, sm) {
		t.Fatalf("%s: members diverge: bitset %v sparse %v", tag, bm, sm)
	}
	var each []int
	p.s.ForEach(func(v int) { each = append(each, v) })
	if c := p.b.Count(); p.s.Count() != c || len(each) != c {
		t.Fatalf("%s: counts diverge", tag)
	}
	if p.s.Cap() != p.b.Cap() {
		t.Fatalf("%s: capacities diverge: bitset %d sparse %d", tag, p.b.Cap(), p.s.Cap())
	}
}

// FuzzSetRepsAgree drives randomized operation sequences against a Bitset
// and a SparseSet in lockstep and demands identical members, iteration
// order and query answers after every step: the property that lets the
// backbone kernels keep neighborhood-sized sets sparse without changing a
// single greedy decision. Run with `go test -fuzz=FuzzSetRepsAgree` for
// open-ended fuzzing; the seed corpus runs as a normal test.
func FuzzSetRepsAgree(f *testing.F) {
	f.Add([]byte{200, 0, 1, 0, 2, 0, 3, 1, 2, 3, 0})
	f.Add([]byte{50, 0, 0, 2, 0, 4, 1, 5, 0, 6, 0, 7, 0})
	f.Add([]byte{255, 2, 9, 2, 8, 3, 0, 4, 0, 5, 0, 8, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		n := int(data[0]) + 20 // 20..275
		a := newPair(n)
		o := newPair(n) // binary-op operand, mutated by its own ops
		for i := 1; i+1 < len(data); i += 2 {
			op, arg := data[i]%7, int(data[i+1])%n
			switch op {
			case 0: // bulk add: spread a run of members from one byte
				for k := 0; k < 8; k++ {
					v := (arg*7 + k*13) % n
					a.b.Add(v)
					a.s.Add(v)
				}
			case 1:
				a.b.Remove(arg)
				a.s.Remove(arg)
			case 2:
				for k := 0; k < 8; k++ {
					v := (arg*5 + k*11) % n
					o.b.Add(v)
					o.s.Add(v)
				}
			case 3:
				a.b.Or(o.b)
				a.s.Or(o.s)
			case 4:
				a.b.AndNot(o.b)
				a.s.AndNot(o.s)
			case 5:
				a.b.CopyFrom(o.b)
				a.s.CopyFrom(o.s)
			case 6: // reset to a fresh (same-capacity) universe
				a.b.Reset(n)
				a.s.Reset(n)
			}
			if a.b.Has(arg) != a.s.Has(arg) {
				t.Fatalf("Has(%d) diverges", arg)
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
				if !g.HasEdge(int(v), u) {
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
		all := NewBitset(n)
		for i := 0; i < n; i++ {
			all.Add(i)
		}
		if !g.IsDominatingSet(all) {
			t.Fatal("full set must dominate")
		}
	})
}
