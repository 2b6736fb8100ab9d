package topology

import (
	"errors"
	"strings"
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

// TestWorkspaceFromPositionsMatchesFromPositions: rebuilding random
// waypoint steps through one reused workspace gives the graphs the
// allocating FromPositions gives, copies its input, and allocates nothing
// once its buffers have grown to the largest network.
func TestWorkspaceFromPositionsMatchesFromPositions(t *testing.T) {
	bounds := geom.Square(100)
	ws := NewWorkspace()
	for _, n := range []int{90, 40, 120} {
		nw, err := Generate(Config{N: n, Bounds: bounds, AvgDegree: 12}, rng.New(uint64(n)))
		if err != nil {
			t.Fatal(err)
		}
		mob := NewRandomWaypoint(nw.Positions, bounds, 2, 6, 0, rng.New(uint64(n)+1))
		for step := 0; step < 8; step++ {
			pos := mob.Step(1)
			want := FromPositions(pos, bounds, nw.Radius)
			got := ws.FromPositions(pos, bounds, nw.Radius)
			graphsEqual(t, step, got.G, want.G)
			if got.Radius != want.Radius || got.Bounds != want.Bounds || len(got.Positions) != n {
				t.Fatalf("n=%d step %d: network fields differ", n, step)
			}
			saved := pos[0]
			pos[0] = geom.Point{X: -1, Y: -1}
			if got.Positions[0] != saved {
				t.Fatalf("n=%d step %d: the workspace network aliases its input", n, step)
			}
			pos[0] = saved
		}
	}
	pos := append([]geom.Point(nil), ws.nw.Positions...)
	if avg := testing.AllocsPerRun(20, func() { ws.FromPositions(pos, bounds, 10) }); avg != 0 {
		t.Fatalf("reused workspace allocates %.1f/step, want 0", avg)
	}
}

// TestCheckEntriesAtRowCapacity: a draw with one adjacency entry more than
// a graph holds fails with an error that names its entry count and is not
// a disconnected draw, so GenerateWith returns it instead of resampling;
// a draw at the capacity passes. The count is checked before any row is
// assembled, so no such graph is built here.
func TestCheckEntriesAtRowCapacity(t *testing.T) {
	if err := checkEntries(graph.MaxEntries); err != nil {
		t.Fatalf("at the capacity: %v", err)
	}
	err := checkEntries(graph.MaxEntries + 1)
	if err == nil {
		t.Fatal("one entry past the capacity passed")
	}
	if !strings.Contains(err.Error(), "2147483648 adjacency entries") {
		t.Fatalf("error does not name the entry count: %v", err)
	}
	if errors.Is(err, ErrDisconnected) {
		t.Fatalf("capacity error counts as a disconnected draw: %v", err)
	}
}

// TestWarmGenerateWithAllocsFlatInN: once its buffers have grown, a
// workspace draws a connected network, a rejected draw included, with an
// object count that does not grow with n, at one strip and at two. Each
// measured call makes the same two attempts at both sizes, because a
// sharded attempt starts its strips' goroutines.
func TestWarmGenerateWithAllocsFlatInN(t *testing.T) {
	for _, workers := range []int{1, 2} {
		var first float64
		for i, n := range []int{2000, 20000} {
			cfg := Config{N: n, Bounds: geom.Square(100), AvgDegree: 10, RequireConnected: true}
			start := *rng.New(rejectedOnce(t, cfg))
			ws := NewWorkspace()
			ws.BuildWorkers = workers
			draw := func() {
				r := start
				if _, err := GenerateWith(cfg, ws, &r); err != nil {
					t.Fatal(err)
				}
			}
			draw()
			allocs := testing.AllocsPerRun(5, draw)
			t.Logf("workers=%d n=%d: warm GenerateWith %.0f objects", workers, n, allocs)
			if i == 0 {
				first = allocs
			} else if allocs > first {
				t.Fatalf("workers=%d: warm GenerateWith allocates %.0f objects at n=%d, %.0f at n=2000", workers, allocs, n, first)
			}
		}
	}
}

// rejectedOnce returns a seed whose first draw under cfg is disconnected
// and whose second is connected.
func rejectedOnce(t *testing.T, cfg Config) uint64 {
	t.Helper()
	ws := NewWorkspace()
	attempts := func(seed uint64, k int) error {
		c := cfg
		c.MaxAttempts = k
		_, err := GenerateWith(c, ws, rng.New(seed))
		return err
	}
	for seed := uint64(1); seed < 500; seed++ {
		if errors.Is(attempts(seed, 1), ErrDisconnected) && attempts(seed, 2) == nil {
			return seed
		}
	}
	t.Fatalf("no seed below 500 rejects exactly one draw at n=%d", cfg.N)
	return 0
}
