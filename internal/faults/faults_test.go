package faults

import (
	"math"
	"testing"

	"clustercast/internal/geom"
	"clustercast/internal/obs"
)

// churnEvents returns the node-crash and node-recover events
// TraceTransitions emits for o over the slots [t0, t1).
func churnEvents(t *testing.T, o *Oracle, t0, t1 int) []obs.Event {
	t.Helper()
	tr := obs.NewTracer(1 << 14)
	o.TraceTransitions(tr, t0, t1)
	if tr.Dropped() != 0 {
		t.Fatalf("trace ring dropped %d churn events", tr.Dropped())
	}
	return tr.Events()
}

func TestParseSpecRoundTrip(t *testing.T) {
	cases := []string{
		"",
		"mtbf=200,mttr=50",
		"loss=0.2",
		"lg=0.05,lb=0.9,pgb=0.01,pbg=0.2",
		"mtbf=100,mttr=25,lg=0.1,part=5:20:x:50,part=30:40:y:25,warmup=100,seed=42",
	}
	for _, s := range cases {
		spec, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s, err)
		}
		again, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("re-parse of %q: %v", spec.String(), err)
		}
		if spec.String() != again.String() {
			t.Errorf("round trip of %q: %q != %q", s, spec.String(), again.String())
		}
	}
}

func TestParseSpecDefaultsAndErrors(t *testing.T) {
	spec, err := ParseSpec("mtbf=200")
	if err != nil {
		t.Fatal(err)
	}
	if spec.MeanDown != 50 {
		t.Errorf("default mttr = %g, want mtbf/4 = 50", spec.MeanDown)
	}
	if !spec.Enabled() {
		t.Error("churn spec should be enabled")
	}
	empty, err := ParseSpec("  ")
	if err != nil || empty.Enabled() {
		t.Errorf("blank spec: err=%v enabled=%v", err, empty.Enabled())
	}
	for _, bad := range append([]string{
		"nope=1", "mtbf", "loss=2", "pgb=0.1",
		"part=1:1:x:5", "part=1:2:z:5", "burst=0.5", "warmup=-3",
		"mtbf=-1", "mtbf=0", "mttr=-5",
	}, nanSpecs...) {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) should fail", bad)
		}
	}
}

func TestSetBurstStationaryRate(t *testing.T) {
	var spec Spec
	if err := spec.SetBurst(0.2, 5); err != nil {
		t.Fatal(err)
	}
	// Stationary bad fraction pGB/(pGB+pBG) must equal the target rate.
	got := spec.PGoodBad / (spec.PGoodBad + spec.PBadGood)
	if math.Abs(got-0.2) > 1e-12 {
		t.Errorf("stationary loss = %g, want 0.2", got)
	}
	if spec.PBadGood != 0.2 {
		t.Errorf("mean burst length = %g, want 5", 1/spec.PBadGood)
	}
}

func TestNodeUpDeterministicAndOrderIndependent(t *testing.T) {
	spec := Spec{MeanUp: 40, MeanDown: 10, Seed: 99}
	a := New(spec, 20)
	b := New(spec, 20)
	// Query a forward, b in a scrambled order; answers must agree.
	type q struct{ v, t int }
	var qs []q
	for tm := 0; tm < 200; tm++ {
		for v := 0; v < 20; v++ {
			qs = append(qs, q{v, tm})
		}
	}
	want := make(map[q]bool, len(qs))
	for _, x := range qs {
		want[x] = a.NodeUp(x.v, x.t)
	}
	for i := len(qs) - 1; i >= 0; i-- {
		x := qs[i]
		if got := b.NodeUp(x.v, x.t); got != want[x] {
			t.Fatalf("NodeUp(%d, %d) order-dependent: %v vs %v", x.v, x.t, got, want[x])
		}
	}
	// And some churn must actually happen over 200 slots at MTBF 40.
	crashes, recoveries := 0, 0
	for _, ev := range churnEvents(t, a, 0, 200) {
		if ev.Kind == obs.EvNodeCrash {
			crashes++
		} else {
			recoveries++
		}
	}
	if crashes == 0 || recoveries == 0 {
		t.Errorf("no churn over 200 slots: crashes=%d recoveries=%d", crashes, recoveries)
	}
}

func TestCopyLostChainIsSlotPure(t *testing.T) {
	var spec Spec
	if err := spec.SetBurst(0.3, 4); err != nil {
		t.Fatal(err)
	}
	spec.Seed = 7
	a := New(spec, 10)
	b := New(spec, 10)
	// Walk a forward through slots 0..99; then query b at the same slots.
	// First-copy answers must agree (the chain state is a pure function of
	// the slot).
	var want []bool
	for tm := 0; tm < 100; tm++ {
		want = append(want, a.CopyLost(1, 2, tm))
	}
	for tm := 0; tm < 100; tm++ {
		if got := b.CopyLost(1, 2, tm); got != want[tm] {
			t.Fatalf("CopyLost(1, 2, %d) diverges between oracles", tm)
		}
	}
	// Rewinding a reused oracle replays identically.
	for tm := 0; tm < 100; tm++ {
		if got := a.CopyLost(1, 2, tm); got != want[tm] {
			t.Fatalf("CopyLost(1, 2, %d) diverges after rewind", tm)
		}
	}
}

func TestGilbertElliottDegeneratesToIID(t *testing.T) {
	// With no transitions the chain never leaves the good state and
	// LossGood acts as an independent per-copy probability.
	spec := Spec{LossGood: 0.25, Seed: 3}
	o := New(spec, 2)
	lost, total := 0, 20000
	for tm := 0; tm < total; tm++ {
		if o.CopyLost(0, 1, tm) {
			lost++
		}
	}
	rate := float64(lost) / float64(total)
	if math.Abs(rate-0.25) > 0.01 {
		t.Errorf("i.i.d. loss rate = %g, want 0.25±0.01", rate)
	}
}

func TestBurstLossMatchesRateAndBurstiness(t *testing.T) {
	var spec Spec
	if err := spec.SetBurst(0.2, 8); err != nil {
		t.Fatal(err)
	}
	spec.Seed = 11
	o := New(spec, 2)
	const total = 60000
	lost, runs := 0, 0
	prev := false
	for tm := 0; tm < total; tm++ {
		l := o.CopyLost(0, 1, tm)
		if l {
			lost++
			if !prev {
				runs++
			}
		}
		prev = l
	}
	rate := float64(lost) / float64(total)
	if math.Abs(rate-0.2) > 0.02 {
		t.Errorf("burst loss rate = %g, want 0.2±0.02", rate)
	}
	meanBurst := float64(lost) / float64(runs)
	if meanBurst < 6 || meanBurst > 10 {
		t.Errorf("mean burst length = %g, want ≈8", meanBurst)
	}
}

func TestPartitionsCutCrossingLinksOnly(t *testing.T) {
	spec := Spec{Partitions: []Partition{{Start: 10, End: 20, Vertical: true, Coord: 50}}}
	o := New(spec, 3)
	o.SetPositions([]geom.Point{{X: 10, Y: 0}, {X: 90, Y: 0}, {X: 20, Y: 0}})
	if !o.LinkUp(0, 1, 5) {
		t.Error("link should be up before the window")
	}
	if o.LinkUp(0, 1, 10) || o.LinkUp(0, 1, 19) {
		t.Error("crossing link should be down inside the window")
	}
	if !o.LinkUp(0, 1, 20) {
		t.Error("link should be up at End (half-open window)")
	}
	if !o.LinkUp(0, 2, 15) {
		t.Error("same-side link should stay up")
	}
	// Without positions the partition clause is inert.
	o2 := New(spec, 3)
	if !o2.LinkUp(0, 1, 15) {
		t.Error("partition without positions should be ignored")
	}
}

func TestWarmupShiftsChurnNotPartitions(t *testing.T) {
	base := Spec{MeanUp: 30, MeanDown: 10, Seed: 5}
	warm := base
	warm.Warmup = 100
	a, b := New(base, 8), New(warm, 8)
	for v := 0; v < 8; v++ {
		for tm := 0; tm < 50; tm++ {
			if a.NodeUp(v, tm+100) != b.NodeUp(v, tm) {
				t.Fatalf("warmup shift broken at node %d slot %d", v, tm)
			}
		}
	}
	// Partition windows must not shift.
	spec := Spec{Warmup: 100, Partitions: []Partition{{Start: 0, End: 10, Vertical: true, Coord: 5}}}
	o := New(spec, 2)
	o.SetPositions([]geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}})
	if o.LinkUp(0, 1, 5) {
		t.Error("partition window should apply at engine time 5 regardless of warmup")
	}
}

func TestNilOracleIsTransparent(t *testing.T) {
	var o *Oracle
	if !o.NodeUp(3, 7) || !o.LinkUp(1, 2, 7) || o.CopyLost(1, 2, 7) {
		t.Error("nil oracle must report everything healthy")
	}
	if evs := churnEvents(t, o, 0, 100); len(evs) != 0 {
		t.Errorf("nil oracle emitted %d churn events", len(evs))
	}
}

func TestAliveCountAndPredicateAgree(t *testing.T) {
	spec := Spec{MeanUp: 20, MeanDown: 20, Seed: 17}
	o := New(spec, 30)
	for _, tm := range []int{0, 13, 57, 200} {
		alive := o.Alive(tm)
		k := 0
		for v := 0; v < 30; v++ {
			if alive(v) {
				k++
			}
		}
		if k != o.AliveCount(tm) {
			t.Fatalf("slot %d: predicate count %d != AliveCount %d", tm, k, o.AliveCount(tm))
		}
	}
}

// TestTransitionsAreConsistentWithNodeUp: the crash and recover events
// TraceTransitions emits for slot s flip exactly the nodes whose NodeUp
// changes from s to s+1, each from the state NodeUp reports at s, and
// they come in slot order; a warmup shifts both alike.
func TestTransitionsAreConsistentWithNodeUp(t *testing.T) {
	const n, slots = 12, 150
	for _, warmup := range []int{0, 40} {
		spec := Spec{MeanUp: 25, MeanDown: 15, Warmup: warmup, Seed: 23}
		evs := churnEvents(t, New(spec, n), 0, slots)
		ref := New(spec, n)
		up := make([]bool, n)
		for v := range up {
			up[v] = ref.NodeUp(v, 0)
		}
		flips := 0
		for s := 0; s < slots; s++ {
			for ; len(evs) > 0 && evs[0].T == s; evs = evs[1:] {
				ev := evs[0]
				if (ev.Kind == obs.EvNodeCrash) != up[ev.Node] {
					t.Fatalf("warmup %d, slot %d: %s of node %d, which NodeUp reports up=%v", warmup, s, ev.Kind, ev.Node, up[ev.Node])
				}
				up[ev.Node] = !up[ev.Node]
				flips++
			}
			for v := range up {
				if got := ref.NodeUp(v, s+1); got != up[v] {
					t.Fatalf("warmup %d: node %d up=%v at slot %d, but its events leave it up=%v", warmup, v, got, s+1, up[v])
				}
			}
		}
		if len(evs) != 0 {
			t.Fatalf("warmup %d: %d events out of slot order or outside [0, %d): first %+v", warmup, len(evs), slots, evs[0])
		}
		if flips == 0 {
			t.Fatalf("warmup %d: no churn over %d slots", warmup, slots)
		}
	}
}

// geStats folds a loss sequence into (loss rate, mean burst length).
type geStats struct {
	slots, lost, runs, runLen int
}

func (g *geStats) observe(lost bool) {
	g.slots++
	if lost {
		g.lost++
		if g.runLen == 0 {
			g.runs++
		}
		g.runLen++
	} else {
		g.runLen = 0
	}
}

func (g *geStats) rate() float64 { return float64(g.lost) / float64(g.slots) }
func (g *geStats) meanBurst() float64 {
	if g.runs == 0 {
		return 0
	}
	return float64(g.lost) / float64(g.runs)
}

// TestOracleGilbertElliottStationary is the statistical validation of the
// scalar chain: under SetBurst(p, L) the long-run empirical loss rate must
// converge to p and the mean length of consecutive-loss runs to L (the bad
// state always loses and sojourns are geometric with mean L).
func TestOracleGilbertElliottStationary(t *testing.T) {
	const slots = 200000
	for _, tc := range []struct{ p, L float64 }{
		{0.1, 4}, {0.3, 8}, {0.2, 1},
	} {
		var spec Spec
		if err := spec.SetBurst(tc.p, tc.L); err != nil {
			t.Fatal(err)
		}
		spec.Seed = 20260808
		o := New(spec, 2)
		var g geStats
		for s := 0; s < slots; s++ {
			g.observe(o.CopyLost(0, 1, s))
		}
		if math.Abs(g.rate()-tc.p) > 0.05*tc.p+0.01 {
			t.Errorf("(p=%g, L=%g): loss rate %g", tc.p, tc.L, g.rate())
		}
		if math.Abs(g.meanBurst()-tc.L) > 0.15*tc.L+0.1 {
			t.Errorf("(p=%g, L=%g): mean burst %g", tc.p, tc.L, g.meanBurst())
		}
	}
}
