package broadcast

import (
	"testing"

	"clustercast/internal/faults"
	"clustercast/internal/geom"
)

func TestFaultsNilOracleMatchesIdeal(t *testing.T) {
	nw := randomNet(t, 31, 50, 10)
	ideal := Run(nw.G, 0, Flooding{})
	faulted := RunOpts(nw.G, 0, Flooding{}, Options{Faults: nil})
	if len(ideal.Received) != len(faulted.Received) || ideal.ForwardCount() != faulted.ForwardCount() {
		t.Fatal("nil oracle must behave exactly like the ideal model")
	}
	// A zero-spec oracle injects nothing either.
	o := faults.New(faults.Spec{}, nw.G.N())
	zero := RunOpts(nw.G, 0, Flooding{}, Options{Faults: o})
	if len(ideal.Received) != len(zero.Received) || ideal.ForwardCount() != zero.ForwardCount() {
		t.Fatal("zero-spec oracle must behave exactly like the ideal model")
	}
}

func TestFaultsDeterministicReplay(t *testing.T) {
	nw := randomNet(t, 32, 60, 10)
	spec := faults.Spec{MeanUp: 30, MeanDown: 10, Seed: 5}
	if err := spec.SetBurst(0.2, 4); err != nil {
		t.Fatal(err)
	}
	spec.MeanUp, spec.MeanDown = 30, 10 // SetBurst does not touch churn
	run := func() *Result {
		return RunOpts(nw.G, 0, Flooding{}, Options{Faults: faults.New(spec, nw.G.N())})
	}
	a, b := run(), run()
	if len(a.Received) != len(b.Received) || a.ForwardCount() != b.ForwardCount() ||
		a.Duplicates != b.Duplicates {
		t.Fatal("same spec + seed must replicate the faulted run exactly")
	}
}

func TestFaultsDownSourceNeverSpreads(t *testing.T) {
	g := pathGraph(5)
	// MeanUp tiny, MeanDown huge: every node crashes almost immediately and
	// stays down past the horizon; with warmup the source is dead at t=0.
	spec := faults.Spec{MeanUp: 1e-6, MeanDown: 1e9, Seed: 1, Warmup: 10}
	o := faults.New(spec, 5)
	if o.NodeUp(0, 0) {
		t.Skip("source drew an unlikely long up period")
	}
	res := RunOpts(g, 0, Flooding{}, Options{Faults: o})
	if len(res.Received) != 1 {
		t.Fatalf("a down source must not spread, got %d receivers", len(res.Received))
	}
}

func TestFaultsLossBurstBlocksPath(t *testing.T) {
	g := pathGraph(4)
	// Bad state from a long burst with rate→1 loses everything; verify the
	// engines drop copies when the chain is bad at the transmission slot.
	spec := faults.Spec{LossGood: 1, LossBad: 1, Seed: 2}
	o := faults.New(spec, 4)
	res := RunOpts(g, 0, Flooding{}, Options{Faults: o})
	if len(res.Received) != 1 {
		t.Fatalf("total fault loss should deliver to nobody, got %d", len(res.Received))
	}
}

func TestFaultsPartitionSplitsDelivery(t *testing.T) {
	// Path 0-1-2-3 with a partition between 1 and 2 for the whole run.
	g := pathGraph(4)
	spec := faults.Spec{Partitions: []faults.Partition{
		{Start: 0, End: 1 << 30, Vertical: true, Coord: 1.5},
	}}
	o := faults.New(spec, 4)
	o.SetPositions(positionsOnLine(4))
	res := RunOpts(g, 0, Flooding{}, Options{Faults: o})
	if res.Received[2] || res.Received[3] {
		t.Fatal("partitioned nodes must not receive")
	}
	if !res.Received[1] {
		t.Fatal("same-side neighbor must receive")
	}
}

func TestFaultsTimedEngineRespectsOracle(t *testing.T) {
	g := pathGraph(4)
	spec := faults.Spec{Partitions: []faults.Partition{
		{Start: 0, End: 1 << 30, Vertical: true, Coord: 1.5},
	}}
	o := faults.New(spec, 4)
	o.SetPositions(positionsOnLine(4))
	res := RunTimedOpts(g, 0, CounterBased{Threshold: 3, MaxDelay: 2, Seed: 9}, TimedOptions{Faults: o})
	if res.Received[2] || res.Received[3] {
		t.Fatal("timed engine ignored the partition")
	}
}

func TestFaultsMACEngineRespectsOracle(t *testing.T) {
	g := pathGraph(4)
	spec := faults.Spec{Partitions: []faults.Partition{
		{Start: 0, End: 1 << 30, Vertical: true, Coord: 1.5},
	}}
	o := faults.New(spec, 4)
	o.SetPositions(positionsOnLine(4))
	res := RunMAC(g, 0, Flooding{}, MACOptions{Jitter: 3, Seed: 9, Faults: o})
	if res.Received[2] || res.Received[3] {
		t.Fatal("MAC engine ignored the partition")
	}
	if res.Received[2] == false && !res.Received[1] {
		t.Fatal("same-side neighbor must receive")
	}
}

// TestFaultsDisabledPathAllocsFree is the acceptance criterion: a nil
// oracle must add zero allocations to the workspace engine's hot path.
func TestFaultsDisabledPathAllocsFree(t *testing.T) {
	nw := randomNet(t, 33, 80, 10)
	ws := NewWorkspace()
	ws.RunOpts(nw.G, 0, Flooding{}, Options{}) // warm the buffers
	allocs := testing.AllocsPerRun(20, func() {
		ws.RunOpts(nw.G, 0, Flooding{}, Options{})
	})
	if allocs != 0 {
		t.Fatalf("nil-oracle workspace run allocates %g per op, want 0", allocs)
	}
}

// TestGossipSeedDecorrelation is the regression test for the additive seed
// bug: node v+1 under seed s must not share its coin with node v under
// seed s+0x9E3779B97F4A7C15 (they did before nodeHash).
func TestGossipSeedDecorrelation(t *testing.T) {
	const odd = 0x9E3779B97F4A7C15
	agree, total := 0, 0
	for v := 0; v < 200; v++ {
		for _, s := range []uint64{1, 99, 12345} {
			a := Gossip{P: 0.5, Seed: s}
			b := Gossip{P: 0.5, Seed: s + odd}
			fa, _ := a.OnReceive(v+1, 0, nil)
			fb, _ := b.OnReceive(v, 0, nil)
			if fa == fb {
				agree++
			}
			total++
		}
	}
	// Decorrelated fair coins agree about half the time; the old additive
	// derivation agreed always.
	if agree == total {
		t.Fatalf("gossip coins fully correlated across (seed, node) shift: %d/%d", agree, total)
	}
	if frac := float64(agree) / float64(total); frac > 0.65 || frac < 0.35 {
		t.Errorf("gossip coin agreement %.2f, want ≈0.5", frac)
	}
}

func TestBackoffDelayHelperSharedByProtocols(t *testing.T) {
	// The three timed protocols must draw identical delays for identical
	// (seed, node, window): one shared hash, no per-protocol drift.
	sba := NewSBA(pathGraph(4), 7, 42)
	for v := 0; v < 64; v++ {
		c := CounterBased{Threshold: 2, MaxDelay: 7, Seed: 42}.Delay(v)
		d := DistanceBased{MinDistance: 1, MaxDelay: 7, Seed: 42}.Delay(v)
		s := sba.Delay(v)
		if c != d || d != s {
			t.Fatalf("delay drift at node %d: counter=%d distance=%d sba=%d", v, c, d, s)
		}
		if c < 0 || c > 7 {
			t.Fatalf("delay %d outside [0, 7]", c)
		}
	}
}

// positionsOnLine places node i at x == i on the x-axis (matching
// pathGraph's adjacency).
func positionsOnLine(n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i), Y: 0}
	}
	return pts
}
