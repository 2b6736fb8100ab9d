package graph

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"clustercast/internal/rng"
)

func TestDigraphBasics(t *testing.T) {
	d := NewDigraph(3)
	d.AddEdge(0, 1)
	d.AddEdge(1, 2)
	if d.N() != 3 || d.M() != 2 {
		t.Fatalf("N=%d M=%d", d.N(), d.M())
	}
	if !d.HasEdge(0, 1) || d.HasEdge(1, 0) {
		t.Fatal("directed edge must not be symmetric")
	}
	if got := d.Out(1); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("Out(1) = %v", got)
	}
	if got := d.In(1); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("In(1) = %v", got)
	}
}

func TestDigraphRejectsDuplicateAndLoop(t *testing.T) {
	d := NewDigraph(2)
	d.AddEdge(0, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("duplicate must panic")
			}
		}()
		d.AddEdge(0, 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("self-loop must panic")
			}
		}()
		d.AddEdge(1, 1)
	}()
}

func TestStronglyConnected(t *testing.T) {
	// Directed 3-cycle: strongly connected.
	c := NewDigraph(3)
	c.AddEdge(0, 1)
	c.AddEdge(1, 2)
	c.AddEdge(2, 0)
	if !c.StronglyConnected() {
		t.Fatal("3-cycle is strongly connected")
	}
	// Directed path: not strongly connected.
	p := NewDigraph(3)
	p.AddEdge(0, 1)
	p.AddEdge(1, 2)
	if p.StronglyConnected() {
		t.Fatal("directed path is not strongly connected")
	}
	if !NewDigraph(0).StronglyConnected() || !NewDigraph(1).StronglyConnected() {
		t.Fatal("trivial digraphs are strongly connected")
	}
}

func TestDigraphDOT(t *testing.T) {
	d := NewDigraph(2)
	d.AddEdge(0, 1)
	out := d.DOT("cg", map[int]string{0: "CH1"})
	if !strings.Contains(out, "0 -> 1") || !strings.Contains(out, `"CH1"`) {
		t.Fatalf("DOT output missing content:\n%s", out)
	}
}

// Property: StronglyConnected agrees with all-pairs reachability by BFS
// over out-edges.
func TestQuickStronglyConnectedMatchesReachability(t *testing.T) {
	reach := func(d *Digraph, src, dst int) bool {
		seen := map[int]bool{src: true}
		queue := []int{src}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			if u == dst {
				return true
			}
			for _, v := range d.Out(u) {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		return false
	}
	f := func(seed uint64, sz uint8) bool {
		n := int(sz)%12 + 1
		r := rng.New(seed)
		d := NewDigraph(n)
		for i := 0; i < 2*n; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v && !d.HasEdge(u, v) {
				d.AddEdge(u, v)
			}
		}
		want := true
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				want = want && reach(d, a, b)
			}
		}
		return d.StronglyConnected() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
