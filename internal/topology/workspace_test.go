package topology

import (
	"testing"

	"clustercast/internal/geom"
	"clustercast/internal/graph"
	"clustercast/internal/rng"
)

// graphsEqual compares two graphs structurally: node count, edge count and
// every (sorted) adjacency list.
func graphsEqual(t *testing.T, step int, got, want *graph.Graph) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("step %d: node count %d, want %d", step, got.N(), want.N())
	}
	if got.M() != want.M() {
		t.Fatalf("step %d: edge count %d, want %d", step, got.M(), want.M())
	}
	for u := 0; u < want.N(); u++ {
		g, w := got.Neighbors(u), want.Neighbors(u)
		if len(g) != len(w) {
			t.Fatalf("step %d: node %d degree %d, want %d", step, u, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("step %d: node %d neighbors %v, want %v", step, u, g, w)
			}
		}
	}
}

// TestGenerateWithMatchesGenerate proves the reused-workspace sampling path
// is bit-identical to the allocating one, including across rejection
// sampling and repeated reuse of a single workspace.
func TestGenerateWithMatchesGenerate(t *testing.T) {
	cfg := Config{N: 80, Bounds: geom.Square(100), AvgDegree: 6, RequireConnected: true}
	ws := NewWorkspace()
	for rep := 0; rep < 25; rep++ {
		seed := uint64(1000 + rep)
		want, err := Generate(cfg, rng.New(seed))
		if err != nil {
			t.Fatalf("rep %d: generate: %v", rep, err)
		}
		got, err := GenerateWith(cfg, ws, rng.New(seed))
		if err != nil {
			t.Fatalf("rep %d: generate with workspace: %v", rep, err)
		}
		graphsEqual(t, rep, got.G, want.G)
		for i := range want.Positions {
			if got.Positions[i] != want.Positions[i] {
				t.Fatalf("rep %d: position %d differs", rep, i)
			}
		}
		if got.Radius != want.Radius {
			t.Fatalf("rep %d: radius %v, want %v", rep, got.Radius, want.Radius)
		}
	}
}
