package cluster

import (
	"reflect"
	"testing"
	"testing/quick"

	"clustercast/internal/geom"
	"clustercast/internal/rng"
	"clustercast/internal/topology"
)

// requireSameClustering asserts an election reproduced the reference
// Clustering bit for bit: Head, Heads, Members, Rounds, When.
func requireSameClustering(t *testing.T, want, got *Clustering, ctx string) {
	t.Helper()
	if !reflect.DeepEqual(want.Head, got.Head) {
		t.Fatalf("%s: Head differs", ctx)
	}
	if !reflect.DeepEqual(want.Heads, got.Heads) {
		t.Fatalf("%s: Heads differ\nwant %v\ngot  %v", ctx, want.Heads, got.Heads)
	}
	if want.Rounds != got.Rounds {
		t.Fatalf("%s: Rounds %d != %d", ctx, got.Rounds, want.Rounds)
	}
	if !reflect.DeepEqual(want.When, got.When) {
		t.Fatalf("%s: When differs", ctx)
	}
	if len(want.Members) != len(got.Members) {
		t.Fatalf("%s: %d member lists != %d", ctx, len(got.Members), len(want.Members))
	}
	for h, m := range want.Members {
		if !reflect.DeepEqual(m, got.Members[h]) {
			t.Fatalf("%s: Members[%d] differ\nwant %v\ngot  %v", ctx, h, m, got.Members[h])
		}
	}
}

// The deprecated ParallelWorkspace forward matches Workspace.LowestID bit
// for bit for every workers value, and a reused Workspace matches the
// package-level Elect under every priority, across densities and seeds.
func TestParallelElectEquivalence(t *testing.T) {
	pw := NewParallelWorkspace()
	ws := NewWorkspace()
	for _, tc := range []struct {
		n    int
		deg  float64
		seed uint64
	}{
		{1, 1, 7}, {2, 1, 7}, {40, 4, 1}, {200, 8, 2}, {500, 18, 3}, {1000, 30, 4},
	} {
		r := rng.New(tc.seed)
		nw, err := topology.Generate(topology.Config{
			N: tc.n, Bounds: geom.Square(100), AvgDegree: tc.deg,
		}, r)
		if err != nil {
			t.Fatal(err)
		}
		prios := []struct {
			name string
			p    Priority
		}{
			{"lowestID", LowestIDPriority},
			{"highestDegree", HighestDegreePriority(nw.G)},
			// Non-injective rank with ID tiebreak exercises the rank/tie
			// comparison rather than the pure-ID fast path.
			{"bucketed", func(v int) (int, int) { return v % 7, v }},
		}
		for _, pr := range prios {
			want := Elect(nw.G, pr.p)
			got := ws.Elect(nw.G, pr.p)
			requireSameClustering(t, want, got, pr.name)
			if err := got.Validate(nw.G); err != nil {
				t.Fatalf("n=%d %s: %v", tc.n, pr.name, err)
			}
		}
		want := ws.LowestID(nw.G)
		for _, workers := range []int{-1, 0, 1, 2, 3, 4, 8, 16} {
			requireSameClustering(t, want, pw.LowestID(nw.G, workers), "lowestID")
		}
	}
}

// Property: on random unit-disk graphs the deprecated forward agrees with
// the reference for every worker count.
func TestQuickParallelElectAgrees(t *testing.T) {
	pw := NewParallelWorkspace()
	ws := NewWorkspace()
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nw, err := topology.Generate(topology.Config{
			N: 60, Bounds: geom.Square(100), AvgDegree: 9,
		}, r)
		if err != nil {
			return false
		}
		want := ws.LowestID(nw.G)
		for _, workers := range []int{1, 3, 8} {
			got := pw.LowestID(nw.G, workers)
			if !reflect.DeepEqual(want.Head, got.Head) || want.Rounds != got.Rounds ||
				!reflect.DeepEqual(want.When, got.When) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Fuzz: the deprecated forward and a reused Workspace vs the reference
// across (n, density, seed, workers).
func FuzzParallelElectAgree(f *testing.F) {
	f.Add(uint(50), uint(8), uint64(1), uint(4))
	f.Add(uint(200), uint(16), uint64(9), uint(16))
	f.Add(uint(3), uint(1), uint64(3), uint(2))
	pw := NewParallelWorkspace()
	ws := NewWorkspace()
	f.Fuzz(func(t *testing.T, n, deg uint, seed uint64, workers uint) {
		n = 1 + n%300
		deg = deg % 24
		workers = 1 + workers%16
		r := rng.New(seed)
		nw, err := topology.Generate(topology.Config{
			N: int(n), Bounds: geom.Square(100), AvgDegree: float64(deg),
		}, r)
		if err != nil {
			t.Skip()
		}
		want := ws.LowestID(nw.G)
		got := pw.LowestID(nw.G, int(workers))
		requireSameClustering(t, want, got, "lowestID")
		want = Elect(nw.G, HighestDegreePriority(nw.G))
		got = ws.Elect(nw.G, HighestDegreePriority(nw.G))
		requireSameClustering(t, want, got, "highestDegree")
	})
}

func benchmarkElect(b *testing.B, n int) {
	r := rng.New(1)
	nw, err := topology.Generate(topology.Config{
		N: n, Bounds: geom.Square(100), AvgDegree: 18, RequireConnected: true,
	}, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	ws := NewWorkspace()
	for i := 0; i < b.N; i++ {
		_ = ws.LowestID(nw.G)
	}
}

// BenchmarkParallelCluster times the lowest-ID election per network size.
func BenchmarkParallelCluster(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		if n > 10000 && testing.Short() {
			continue
		}
		b.Run("n="+itoa(n)+"/reference", func(b *testing.B) { benchmarkElect(b, n) })
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
