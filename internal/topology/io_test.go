package topology

import (
	"bytes"
	"strings"
	"testing"

	"clustercast/internal/geom"
	"clustercast/internal/rng"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	r := rng.New(7)
	nw, err := Generate(Config{N: 40, Bounds: geom.Square(100), AvgDegree: 8, RequireConnected: true}, r)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := nw.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.N() != nw.N() || loaded.Radius != nw.Radius || loaded.Bounds != nw.Bounds {
		t.Fatal("metadata did not round-trip")
	}
	for i := range nw.Positions {
		if nw.Positions[i] != loaded.Positions[i] {
			t.Fatalf("position %d changed: %v vs %v", i, nw.Positions[i], loaded.Positions[i])
		}
	}
	// The graph is rebuilt from geometry and must be identical.
	if loaded.G.M() != nw.G.M() {
		t.Fatalf("edge count changed: %d vs %d", loaded.G.M(), nw.G.M())
	}
	for _, e := range nw.G.Edges() {
		if !loaded.G.HasEdge(e[0], e[1]) {
			t.Fatalf("edge %v lost in round trip", e)
		}
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"garbage":         "{not json",
		"bad version":     `{"version": 99, "bounds": {"MinX":0,"MinY":0,"MaxX":10,"MaxY":10}, "radius": 1, "positions": []}`,
		"zero radius":     `{"version": 1, "bounds": {"MinX":0,"MinY":0,"MaxX":10,"MaxY":10}, "radius": 0, "positions": []}`,
		"empty bounds":    `{"version": 1, "bounds": {"MinX":0,"MinY":0,"MaxX":0,"MaxY":0}, "radius": 1, "positions": []}`,
		"node off bounds": `{"version": 1, "bounds": {"MinX":0,"MinY":0,"MaxX":10,"MaxY":10}, "radius": 1, "positions": [{"X": 50, "Y": 5}]}`,
		// Radii whose square overflows or underflows: 2e200 and 1e-165 apart
		// would pass the squared-distance test.
		"radius overflows":  `{"version": 1, "bounds": {"MinX":-1e300,"MinY":-1,"MaxX":1e300,"MaxY":1}, "radius": 1e160, "positions": [{"X": -1e200, "Y": 0}, {"X": 1e200, "Y": 0}]}`,
		"radius underflows": `{"version": 1, "bounds": {"MinX":0,"MinY":0,"MaxX":1,"MaxY":1}, "radius": 1e-170, "positions": [{"X": 0, "Y": 0}, {"X": 1e-165, "Y": 0}]}`,
	}
	for name, in := range cases {
		if _, err := Load(strings.NewReader(in)); err == nil {
			t.Fatalf("%s: Load should have failed", name)
		}
	}
}

// A snapshot with a tiny radius in huge bounds once sized the grid by
// bounds/radius (about 10¹⁶ cells) and panicked; it must load into the
// same unit disk graph as the pairwise construction.
func TestLoadWideBounds(t *testing.T) {
	const wide = `"bounds":{"MinX":0,"MinY":0,"MaxX":1e6,"MaxY":1e6},"radius":0.01`
	for name, tc := range map[string]struct {
		positions string
		edges     int
	}{
		"two far apart":    {`{"X":1,"Y":1},{"X":2,"Y":2}`, 0},
		"two in range":     {`{"X":5e5,"Y":5e5},{"X":500000.005,"Y":5e5}`, 1},
		"opposite corners": {`{"X":0,"Y":0},{"X":1e6,"Y":1e6},{"X":999999.995,"Y":1e6}`, 1},
	} {
		nw, err := Load(strings.NewReader(`{"version":1,` + wide + `,"positions":[` + tc.positions + `]}`))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if nw.G.M() != tc.edges {
			t.Fatalf("%s: %d edges, want %d", name, nw.G.M(), tc.edges)
		}
		requireRows(t, nw.G, bruteForceUDG(nw.Positions, nw.Radius), name)
	}
}

func TestSaveIsStable(t *testing.T) {
	r := rng.New(9)
	nw, err := Generate(Config{N: 10, Bounds: geom.Square(50), AvgDegree: 4}, r)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := nw.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := nw.Save(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("Save must be deterministic")
	}
}
