package sim

import (
	"reflect"
	"testing"

	"clustercast/internal/coverage"
	"clustercast/internal/geom"
	"clustercast/internal/graph"
	"clustercast/internal/rng"
	"clustercast/internal/topology"
)

// sameOutcome demands bit-identical results from the round-synchronous
// oracle (a) and the production Run (b), field by field.
func sameOutcome(t *testing.T, label string, a, b *Outcome) {
	t.Helper()
	if !reflect.DeepEqual(a.Head, b.Head) {
		t.Fatalf("%s: Head differs:\n  oracle %v\n  engine %v", label, a.Head, b.Head)
	}
	if !reflect.DeepEqual(a.Heads, b.Heads) {
		t.Fatalf("%s: Heads differ: oracle %v, engine %v", label, a.Heads, b.Heads)
	}
	if !reflect.DeepEqual(a.Backbone, b.Backbone) {
		t.Fatalf("%s: Backbone differs: oracle %v, engine %v",
			label, sortedKeys(a.Backbone), sortedKeys(b.Backbone))
	}
	if !reflect.DeepEqual(a.PerHead, b.PerHead) {
		t.Fatalf("%s: PerHead differs:\n  oracle %v\n  engine %v", label, a.PerHead, b.PerHead)
	}
	if !reflect.DeepEqual(a.Counters, b.Counters) {
		t.Fatalf("%s: Counters differ:\n  oracle %v %v\n  engine %v %v",
			label, a.Counters.String(), a.Counters.ActivePerRound,
			b.Counters.String(), b.Counters.ActivePerRound)
	}
}

func TestDESSimEquivalence(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"paper":  paperGraph(),
		"line":   topology.LineTopology(25, 1.0, 1.2).G,
		"single": graph.New(1),
		"empty3": graph.New(3), // disconnected: every node elects itself
	}
	r := rng.New(404)
	for i := 0; i < 8; i++ {
		deg := 6.0
		if i%2 == 1 {
			deg = 18.0
		}
		nw, err := topology.Generate(topology.Config{
			N: 60, Bounds: geom.Square(100), AvgDegree: deg,
			RequireConnected: true, MaxAttempts: 400,
		}, r)
		if err != nil {
			continue
		}
		graphs["random-"+string(rune('a'+i))] = nw.G
	}
	for name, g := range graphs {
		for _, mode := range []coverage.Mode{coverage.Hop25, coverage.Hop3} {
			oracle, _ := runOracle(g, mode)
			sameOutcome(t, name+"/"+mode.String(), oracle, Run(g, mode))
		}
	}
}

// The per-round activity series must be internally consistent: one entry
// per counted round, each within [1, n], summing to at least the number
// of rounds (every counted round has at least one sender).
func TestActivePerRoundInvariants(t *testing.T) {
	g := paperGraph()
	oracle, _ := runOracle(g, coverage.Hop25)
	for _, out := range []*Outcome{oracle, Run(g, coverage.Hop25)} {
		c := out.Counters
		if len(c.ActivePerRound) != c.Rounds {
			t.Fatalf("len(ActivePerRound)=%d, Rounds=%d", len(c.ActivePerRound), c.Rounds)
		}
		for i, a := range c.ActivePerRound {
			if a < 1 || a > g.N() {
				t.Fatalf("round %d: %d active nodes out of range [1,%d]", i, a, g.N())
			}
		}
		if c.ActivePerRound[0] != g.N() {
			t.Fatalf("HELLO round must have all %d nodes active, got %d", g.N(), c.ActivePerRound[0])
		}
		if m := c.MeanActive(); m <= 0 || m > float64(g.N()) {
			t.Fatalf("MeanActive = %v out of range", m)
		}
	}
	var empty Counters
	if empty.MeanActive() != 0 {
		t.Fatal("MeanActive on empty counters must be 0")
	}
}

func FuzzDESSimAgree(f *testing.F) {
	f.Add(uint64(1), uint8(0))
	f.Add(uint64(7), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, m uint8) {
		mode := coverage.Hop25
		if m%2 == 1 {
			mode = coverage.Hop3
		}
		r := rng.New(seed)
		nw, err := topology.Generate(topology.Config{
			N: 30, Bounds: geom.Square(100), AvgDegree: 7,
			RequireConnected: true, MaxAttempts: 200,
		}, r)
		if err != nil {
			t.Skip()
		}
		oracle, _ := runOracle(nw.G, mode)
		sameOutcome(t, "fuzz", oracle, Run(nw.G, mode))
	})
}
