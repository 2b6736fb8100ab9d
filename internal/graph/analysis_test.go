package graph

import (
	"reflect"
	"testing"
	"testing/quick"

	"clustercast/internal/rng"
)

func TestCutVerticesPath(t *testing.T) {
	g := pathGraph(5)
	cut := g.CutVertices()
	want := SetOf(1, 2, 3)
	if !reflect.DeepEqual(cut, want) {
		t.Fatalf("cut vertices = %v, want interior nodes", SortedMembers(cut))
	}
}

func TestCutVerticesCycleHasNone(t *testing.T) {
	g := cycleGraph(6)
	if cut := g.CutVertices(); len(cut) != 0 {
		t.Fatalf("cycle has no articulation points: %v", SortedMembers(cut))
	}
}

func TestCutVerticesBridgeGraph(t *testing.T) {
	// Two triangles joined through node 2—3: both endpoints of the bridge
	// are articulation points.
	g := FromEdges(6, [][2]int{
		{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {3, 5}, {4, 5},
	})
	cut := g.CutVertices()
	if !cut[2] || !cut[3] || len(cut) != 2 {
		t.Fatalf("cut vertices = %v, want {2,3}", SortedMembers(cut))
	}
}

func TestTrianglesAndClustering(t *testing.T) {
	tri := FromEdges(3, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	if tri.Triangles() != 1 {
		t.Fatalf("triangle count = %d", tri.Triangles())
	}
	if c := tri.ClusteringCoefficient(); c != 1 {
		t.Fatalf("triangle clustering = %g, want 1", c)
	}
	p := pathGraph(5)
	if p.Triangles() != 0 || p.ClusteringCoefficient() != 0 {
		t.Fatal("path has no triangles")
	}
	k4 := New(4)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			k4.AddEdge(u, v)
		}
	}
	if k4.Triangles() != 4 {
		t.Fatalf("K4 triangles = %d, want 4", k4.Triangles())
	}
	if c := k4.ClusteringCoefficient(); c != 1 {
		t.Fatalf("K4 clustering = %g, want 1", c)
	}
}

// bruteCut recomputes articulation points by deletion + connectivity.
func bruteCut(g *Graph) map[int]bool {
	out := map[int]bool{}
	base := len(g.Components())
	for v := 0; v < g.N(); v++ {
		// Build g minus v.
		h := New(g.N())
		for _, e := range g.Edges() {
			if e[0] != v && e[1] != v {
				h.AddEdge(e[0], e[1])
			}
		}
		// Removing v leaves an isolated placeholder vertex; compare
		// component counts excluding it.
		comps := 0
		for _, c := range h.Components() {
			if len(c) == 1 && c[0] == v {
				continue
			}
			comps++
		}
		if g.Degree(v) > 0 && comps > base {
			out[v] = true
		}
	}
	return out
}

// Property: Tarjan articulation points match brute-force deletion.
func TestQuickCutVerticesMatchBruteForce(t *testing.T) {
	f := func(seed uint64, sz uint8) bool {
		n := int(sz)%20 + 3
		r := rng.New(seed)
		g := randomConnectedGraph(r, n, n/2)
		return reflect.DeepEqual(g.CutVertices(), bruteCut(g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCutVertices(b *testing.B) {
	r := rng.New(1)
	g := randomConnectedGraph(r, 500, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.CutVertices()
	}
}
