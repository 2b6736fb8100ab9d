package coverage

import (
	"reflect"
	"slices"
	"testing"

	"clustercast/internal/cluster"
	"clustercast/internal/geom"
	"clustercast/internal/rng"
	"clustercast/internal/topology"
)

// digestWorkers are the worker counts the digest tests compare against
// the reference digest.
var digestWorkers = []int{1, 2, 3, 4, 8, 16}

// requireSameDigest asserts the digest of got reproduced the reference
// digest of want bit for bit: every CH1 view and every CH2 entry list, per
// node.
func requireSameDigest(t *testing.T, want, got *Builder, n int, ctx string) {
	t.Helper()
	for v := 0; v < n; v++ {
		if !slices.Equal(want.CH1(v), got.CH1(v)) {
			t.Fatalf("%s: CH1(%d) differs\nwant %v\ngot  %v", ctx, v, want.CH1(v), got.CH1(v))
		}
		if w, g := want.ch2[v], got.ch2[v]; !slices.Equal(w, g) {
			t.Fatalf("%s: CH2(%d) differs\nwant %v\ngot  %v", ctx, v, w, g)
		}
	}
}

// The digest matches the sort-then-dedupe reference bit for bit across
// worker counts, modes, densities and seeds, with builder reuse between
// configurations.
func TestResetParallelEquivalence(t *testing.T) {
	var ref, par Builder
	cws := cluster.NewWorkspace()
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
		cl := cws.LowestID(nw.G)
		for _, mode := range []Mode{Hop25, Hop3} {
			ref.resetReference(nw.G, cl, mode)
			for _, workers := range digestWorkers {
				par.ResetParallel(nw.G, cl, mode, workers)
				requireSameDigest(t, &ref, &par, tc.n, mode.String())
			}
		}
	}
}

// A builder digested by ResetParallel serves the same coverage sets as
// one digested by the reference — the assembly paths downstream of the
// digests see identical inputs.
func TestResetParallelCoverageAgrees(t *testing.T) {
	r := rng.New(11)
	nw, err := topology.Generate(topology.Config{
		N: 600, Bounds: geom.Square(100), AvgDegree: 14,
	}, r)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.NewWorkspace().LowestID(nw.G)
	var ref, par Builder
	for _, mode := range []Mode{Hop25, Hop3} {
		ref.resetReference(nw.G, cl, mode)
		for _, workers := range digestWorkers {
			par.ResetParallel(nw.G, cl, mode, workers)
			var scrA, scrB AsmScratch
			var cw, cg Coverage
			for _, h := range cl.Heads {
				ref.OfScratch(h, &cw, &scrA)
				par.OfScratch(h, &cg, &scrB)
				if !slices.Equal(cw.C2.Members(), cg.C2.Members()) || !slices.Equal(cw.C3.Members(), cg.C3.Members()) {
					t.Fatalf("%v workers %d: coverage sets of head %d differ", mode, workers, h)
				}
				if len(cw.Conns) != len(cg.Conns) {
					t.Fatalf("%v workers %d: head %d: %d connectors != %d", mode, workers, h, len(cg.Conns), len(cw.Conns))
				}
				for i := range cw.Conns {
					a, b := &cw.Conns[i], &cg.Conns[i]
					if a.V != b.V || !reflect.DeepEqual(a.Direct, b.Direct) || !reflect.DeepEqual(a.Indirect, b.Indirect) {
						t.Fatalf("%v workers %d: head %d connector %d differs", mode, workers, h, i)
					}
				}
			}
		}
	}
}

// Fuzz: the digest vs the reference across (n, density, seed, mode), at
// every worker count of digestWorkers and at the fuzzed one.
func FuzzResetParallelAgree(f *testing.F) {
	f.Add(uint(50), uint(8), uint64(1), uint(4))
	f.Add(uint(200), uint(16), uint64(9), uint(16))
	f.Add(uint(3), uint(1), uint64(3), uint(2))
	var ref, par Builder
	cws := cluster.NewWorkspace()
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
		cl := cws.LowestID(nw.G)
		for _, mode := range []Mode{Hop25, Hop3} {
			ref.resetReference(nw.G, cl, mode)
			for _, w := range digestWorkers {
				par.ResetParallel(nw.G, cl, mode, w)
				requireSameDigest(t, &ref, &par, int(n), mode.String())
			}
			par.ResetParallel(nw.G, cl, mode, int(workers))
			requireSameDigest(t, &ref, &par, int(n), mode.String())
		}
	})
}

func benchmarkDigest(b *testing.B, n int, mode Mode, workers int) {
	r := rng.New(1)
	nw, err := topology.Generate(topology.Config{
		N: n, Bounds: geom.Square(100), AvgDegree: 18, RequireConnected: true,
	}, r)
	if err != nil {
		b.Fatal(err)
	}
	cl := cluster.NewWorkspace().LowestID(nw.G)
	var bld Builder
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld.ResetParallel(nw.G, cl, mode, workers)
	}
}

func BenchmarkShardedCoverage(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		if n > 10000 && testing.Short() {
			continue
		}
		for _, m := range []Mode{Hop25, Hop3} {
			prefix := "n=" + itoa(n) + "/" + m.String() + "-"
			b.Run(prefix+"w1", func(b *testing.B) { benchmarkDigest(b, n, m, 1) })
			b.Run(prefix+"sharded-w8", func(b *testing.B) { benchmarkDigest(b, n, m, 8) })
		}
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
