package workload

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"clustercast/internal/broadcast"
	"clustercast/internal/geom"
	"clustercast/internal/rng"
	"clustercast/internal/topology"
)

func testNet(t testing.TB, seed uint64, n int, deg float64) *topology.Network {
	t.Helper()
	r := rng.New(seed)
	nw, err := topology.Generate(topology.Config{
		N: n, Bounds: geom.Square(100), AvgDegree: deg,
		RequireConnected: true, MaxAttempts: 500,
	}, r)
	if err != nil {
		t.Skipf("could not generate network: %v", err)
	}
	return nw
}

func TestGenerateDeterministic(t *testing.T) {
	spec := Spec{Process: Poisson, Rate: 0.25, Flows: 50, FanOut: 2, Discovery: true, Seed: 9}
	a, err := spec.Generate(40)
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Generate(40)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two generations of the same spec differ")
	}
	if len(a) != 50 {
		t.Fatalf("generated %d flows, want 50", len(a))
	}
	for i, f := range a {
		if f.ID != i {
			t.Fatalf("flow %d has ID %d", i, f.ID)
		}
		if f.Src < 0 || f.Src >= 40 || f.Dst < 0 || f.Dst >= 40 {
			t.Fatalf("flow %d endpoints out of range: %+v", i, f)
		}
		if f.Dst == f.Src {
			t.Fatalf("discovery flow %d has Dst == Src", i)
		}
		if i > 0 && f.Start < a[i-1].Start {
			t.Fatalf("flow %d starts before its predecessor", i)
		}
		if f.Seed != spec.FlowSeed(i) {
			t.Fatalf("flow %d seed is not the counter key", i)
		}
	}
}

// TestFlowSeedsAreCounterKeys: a flow's seed does not depend on how many
// flows the spec generates (counter keys, not stream draws).
func TestFlowSeedsAreCounterKeys(t *testing.T) {
	small := Spec{Process: Bursty, Burst: 2, Every: 5, Flows: 4, Seed: 3}
	large := small
	large.Flows = 32
	a, err := small.Generate(30)
	if err != nil {
		t.Fatal(err)
	}
	b, err := large.Generate(30)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b[:len(a)]) {
		t.Fatal("flow prefix changed when the spec generated more flows")
	}
}

func TestGenerateBursty(t *testing.T) {
	spec := Spec{Process: Bursty, Burst: 3, Every: 10, Flows: 9, Seed: 1}
	flows, err := spec.Generate(20)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range flows {
		if want := (i / 3) * 10; f.Start != want {
			t.Fatalf("flow %d starts at %d, want %d", i, f.Start, want)
		}
		if f.Dst != -1 {
			t.Fatalf("broadcast flow %d has a destination", i)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{},
		{Process: Poisson, Rate: 0, Flows: 5},
		{Process: Poisson, Rate: -1, Flows: 5},
		{Process: Bursty, Burst: 0, Every: 5, Flows: 5},
		{Process: Bursty, Burst: 5, Every: 0, Flows: 5},
		{Process: Process(7), Flows: 5},
		{Process: Poisson, Rate: 1, Flows: 5, FanOut: -1},
		{Process: Poisson, Rate: math.NaN(), Flows: 5},
		{Process: Poisson, Rate: math.Inf(1), Flows: 5},
		{Process: Bursty, Burst: 2, Every: 5, Flows: 5, Rate: math.NaN()},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("case %d: Validate accepted %+v", i, s)
		}
	}
	ok := DefaultSpec(1)
	if _, err := ok.Generate(0); err == nil {
		t.Fatal("Generate accepted n = 0")
	}
	// Arrivals past the slot clock's limit are an error, not flows at
	// negative (wrapped) slots; arrivals up to the limit are fine.
	for _, in := range overflowSpecs {
		spec, err := ParseSpec(in)
		if err != nil {
			continue
		}
		if flows, err := spec.Generate(10); err == nil {
			t.Errorf("%q: Generate returned %d flows starting at %d; want an error", in, len(flows), flows[0].Start)
		}
	}
	edge := Spec{Process: Bursty, Burst: 1, Every: MaxStart, Flows: 2}
	if flows, err := edge.Generate(4); err != nil || flows[1].Start != MaxStart {
		t.Fatalf("bursty arrivals at the limit: %+v, %v", flows, err)
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	specs := []Spec{
		{Process: Poisson, Rate: 0.2, Flows: 64, FanOut: 1, Seed: 7},
		{Process: Poisson, Rate: 1.5, Flows: 10, FanOut: 3, Discovery: true},
		{Process: Bursty, Burst: 8, Every: 20, Flows: 40, FanOut: 1, Seed: 12},
	}
	for i, want := range specs {
		got, err := ParseSpec(want.String())
		if err != nil {
			t.Fatalf("case %d: ParseSpec(%q): %v", i, want.String(), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: round trip %q → %+v, want %+v", i, want.String(), got, want)
		}
	}
	if _, err := ParseSpec(""); err != nil {
		t.Fatalf("empty spec: %v", err)
	}
	for _, bad := range []string{"nope", "proc=martian", "rate=x", "flows=0", "rate=NaN", "rate=+Inf"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec accepted %q", bad)
		}
	}
}

// workspaceEngine is the workspace-bound Engine shape: one
// MultiMACWorkspace reused across every scenario the runner hands it.
func workspaceEngine() Engine {
	mw := new(broadcast.MultiMACWorkspace)
	return mw.Run
}

// TestRunTrafficScalarDESIdentical: the traffic runner reports the
// aggregates of the scalar multi-source engine the calendar engine
// replaced (pinned below), through the package-level engine and through
// a reused workspace alike.
func TestRunTrafficScalarDESIdentical(t *testing.T) {
	nw := testNet(t, 5, 50, 9)
	spec := Spec{Process: Poisson, Rate: 0.5, Flows: 24, FanOut: 2, Seed: 11}
	flows, err := spec.Generate(nw.N())
	if err != nil {
		t.Fatal(err)
	}
	proto := func(int) broadcast.Protocol { return broadcast.Flooding{} }
	opt := broadcast.MACOptions{Jitter: 3}
	const scalar = "{Flows:24 DeliveryRatio:0.3333333333333333 Throughput:5.7846153846153845 MeanLatency:12.5 " +
		"Collisions:758 CrossCollisions:421 Transmissions:400 Makespan:65}"
	ws := workspaceEngine()
	for _, engine := range []Engine{broadcast.RunMACMulti, ws, ws} {
		if got := fmt.Sprintf("%+v", *RunTraffic(nw.G, flows, proto, opt, engine)); got != scalar {
			t.Fatalf("traffic aggregates differ from the scalar engine's:\n%s\n%s", got, scalar)
		}
	}
}

// TestRunDiscoveryScalarDESIdentical: same for the discovery runner.
func TestRunDiscoveryScalarDESIdentical(t *testing.T) {
	nw := testNet(t, 6, 50, 10)
	spec := Spec{Process: Bursty, Burst: 2, Every: 15, Flows: 16, Discovery: true, Seed: 13}
	flows, err := spec.Generate(nw.N())
	if err != nil {
		t.Fatal(err)
	}
	proto := func(int) broadcast.Protocol { return broadcast.Flooding{} }
	opt := broadcast.MACOptions{Jitter: 4}
	const scalar = "{Requests:16 Found:14 SuccessRatio:0.875 MeanLatency:13 MeanRouteLen:4.357142857142857 " +
		"MeanStretch:1.4107142857142858 RequestCost:670 ReplyCost:61}"
	ws := workspaceEngine()
	for _, engine := range []Engine{broadcast.RunMACMulti, ws, ws} {
		if got := fmt.Sprintf("%+v", *RunDiscovery(nw.G, flows, proto, opt, engine)); got != scalar {
			t.Fatalf("discovery aggregates differ from the scalar engine's:\n%s\n%s", got, scalar)
		}
	}
}

// TestRunTrafficDefaultEngine: a nil engine falls back to
// broadcast.RunMACMulti.
func TestRunTrafficDefaultEngine(t *testing.T) {
	nw := testNet(t, 7, 30, 8)
	spec := DefaultSpec(3)
	spec.Flows = 8
	flows, err := spec.Generate(nw.N())
	if err != nil {
		t.Fatal(err)
	}
	proto := func(int) broadcast.Protocol { return broadcast.Flooding{} }
	a := RunTraffic(nw.G, flows, proto, broadcast.MACOptions{Jitter: 2}, nil)
	b := RunTraffic(nw.G, flows, proto, broadcast.MACOptions{Jitter: 2}, broadcast.RunMACMulti)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("nil engine is not RunMACMulti:\n%+v\n%+v", a, b)
	}
}
