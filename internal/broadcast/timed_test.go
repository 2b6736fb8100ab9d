package broadcast

import (
	"testing"
	"testing/quick"

	"clustercast/internal/geom"
	"clustercast/internal/graph"
	"clustercast/internal/rng"
	"clustercast/internal/topology"
)

// alwaysForward is a timed protocol that behaves like flooding with a
// fixed delay — used to validate the timed engine itself.
type alwaysForward struct{ delay int }

func (a alwaysForward) Name() string                   { return "always" }
func (a alwaysForward) Delay(v int) int                { return a.delay }
func (a alwaysForward) Decide(v int, heard []int) bool { return true }

func TestRunTimedMatchesFloodingWithZeroDelay(t *testing.T) {
	nw := randomNet(t, 41, 50, 10)
	timed := RunTimed(nw.G, 0, alwaysForward{})
	flood := Run(nw.G, 0, Flooding{})
	if len(timed.Received) != len(flood.Received) {
		t.Fatalf("timed engine delivered %d, plain engine %d",
			len(timed.Received), len(flood.Received))
	}
	if timed.ForwardCount() != flood.ForwardCount() {
		t.Fatalf("forwarders differ: %d vs %d", timed.ForwardCount(), flood.ForwardCount())
	}
	if timed.Latency != flood.Latency {
		t.Fatalf("latency differs: %d vs %d", timed.Latency, flood.Latency)
	}
}

func TestRunTimedDelayIncreasesLatency(t *testing.T) {
	g := graph.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	fast := RunTimed(g, 0, alwaysForward{delay: 0})
	slow := RunTimed(g, 0, alwaysForward{delay: 3})
	if slow.Latency <= fast.Latency {
		t.Fatalf("delay should raise latency: %d vs %d", slow.Latency, fast.Latency)
	}
	if len(slow.Received) != 4 {
		t.Fatal("delayed flooding must still deliver")
	}
}

func TestSBAPaperFigure5(t *testing.T) {
	// The paper's Figure 5: a triangle u,v,w. Naive flooding costs two
	// redundant transmissions (v and w rebroadcast to each other). With
	// coverage-aware self-pruning both resign — the transmission by u
	// already covers everything each of them can reach — matching the
	// paper's "two redundant transmissions are saved" outcome.
	g := graph.FromEdges(3, [][2]int{{0, 1}, {0, 2}, {1, 2}})
	res := RunTimed(g, 0, NewSBA(g, 4, 1))
	if len(res.Received) != 3 {
		t.Fatal("delivery incomplete")
	}
	if res.ForwardCount() != 1 {
		t.Fatalf("forwarders = %d, want 1 (both redundant transmissions saved)",
			res.ForwardCount())
	}
	flood := Run(g, 0, Flooding{})
	if saved := flood.ForwardCount() - res.ForwardCount(); saved != 2 {
		t.Fatalf("saved %d transmissions vs flooding, want 2", saved)
	}
}

func TestSBAZeroDelayStillDelivers(t *testing.T) {
	nw := randomNet(t, 43, 60, 10)
	res := RunTimed(nw.G, 0, NewSBA(nw.G, 0, 1))
	if len(res.Received) != 60 {
		t.Fatalf("SBA with zero back-off delivered %d/60", len(res.Received))
	}
}

func TestSBADeterministic(t *testing.T) {
	nw := randomNet(t, 44, 50, 12)
	a := RunTimed(nw.G, 3, NewSBA(nw.G, 5, 9))
	b := RunTimed(nw.G, 3, NewSBA(nw.G, 5, 9))
	if a.ForwardCount() != b.ForwardCount() || a.Latency != b.Latency {
		t.Fatal("SBA runs with equal seeds must replicate")
	}
}

// Property: SBA always delivers to the whole connected network and — with
// a positive back-off window — uses no more forwarders than flooding.
func TestQuickSBADeliversAndPrunes(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nw, err := topology.Generate(topology.Config{
			N: 50, Bounds: geom.Square(100), AvgDegree: 12,
			RequireConnected: true, MaxAttempts: 300,
		}, r)
		if err != nil {
			return true
		}
		src := r.Intn(50)
		res := RunTimed(nw.G, src, NewSBA(nw.G, 4, seed))
		if len(res.Received) != 50 {
			return false
		}
		return res.ForwardCount() <= 50
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSBABackoffPrunes quantifies the delay/pruning trade-off of §3: a
// larger back-off window saves transmissions and costs latency.
func TestSBABackoffPrunes(t *testing.T) {
	root := rng.New(2025)
	var fwd0, fwd8, lat0, lat8 int
	const trials = 15
	for i := 0; i < trials; i++ {
		nw, err := topology.Generate(topology.Config{
			N: 80, Bounds: geom.Square(100), AvgDegree: 18,
			RequireConnected: true, MaxAttempts: 300,
		}, root)
		if err != nil {
			t.Fatal(err)
		}
		src := root.Intn(80)
		r0 := RunTimed(nw.G, src, NewSBA(nw.G, 0, uint64(i)))
		r8 := RunTimed(nw.G, src, NewSBA(nw.G, 8, uint64(i)))
		if len(r0.Received) != 80 || len(r8.Received) != 80 {
			t.Fatal("delivery incomplete")
		}
		fwd0 += r0.ForwardCount()
		fwd8 += r8.ForwardCount()
		lat0 += r0.Latency
		lat8 += r8.Latency
	}
	if fwd8 >= fwd0 {
		t.Fatalf("longer back-off should prune more: window 0 → %d forwards, window 8 → %d",
			fwd0, fwd8)
	}
	if lat8 <= lat0 {
		t.Fatalf("longer back-off should cost latency: %d vs %d", lat0, lat8)
	}
	t.Logf("avg forwards: window0=%.1f window8=%.1f; avg latency: %.1f vs %.1f",
		float64(fwd0)/trials, float64(fwd8)/trials, float64(lat0)/trials, float64(lat8)/trials)
}

func BenchmarkSBA100(b *testing.B) {
	r := rng.New(1)
	nw, err := topology.Generate(topology.Config{
		N: 100, Bounds: geom.Square(100), AvgDegree: 18, RequireConnected: true,
	}, r)
	if err != nil {
		b.Fatal(err)
	}
	p := NewSBA(nw.G, 4, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Seed = uint64(i)
		_ = RunTimed(nw.G, i%100, p)
	}
}
