package topology

import (
	"strings"
	"testing"
)

// FuzzLoad throws arbitrary JSON at the snapshot loader: it must either
// return an error or a structurally valid network (all nodes in bounds,
// unit-disk edges only), never panic.
func FuzzLoad(f *testing.F) {
	f.Add(`{"version":1,"bounds":{"MinX":0,"MinY":0,"MaxX":10,"MaxY":10},"radius":3,"positions":[{"X":1,"Y":1},{"X":2,"Y":2}]}`)
	f.Add(`{"version":1}`)
	f.Add(`[]`)
	f.Add(``)
	f.Add(`{"version":1,"bounds":{"MinX":0,"MinY":0,"MaxX":1,"MaxY":1},"radius":1e308,"positions":[{"X":0.5,"Y":0.5}]}`)
	f.Add(`{"version":1,"bounds":{"MinX":0,"MinY":0,"MaxX":1e6,"MaxY":1e6},"radius":0.01,"positions":[{"X":1,"Y":1},{"X":2,"Y":2}]}`)
	f.Fuzz(func(t *testing.T, in string) {
		nw, err := Load(strings.NewReader(in))
		if err != nil {
			return
		}
		for i, p := range nw.Positions {
			if !nw.Bounds.Contains(p) {
				t.Fatalf("loaded node %d outside bounds", i)
			}
		}
		for u := 0; u < nw.N(); u++ {
			for _, v := range nw.G.Neighbors(u) {
				if nw.Positions[u].Dist(nw.Positions[v]) > nw.Radius {
					t.Fatalf("edge {%d,%d} longer than the radius", u, v)
				}
			}
		}
	})
}

// FuzzClusterOverLoad chains the loader with clustering: any successfully
// loaded snapshot must produce a valid clustering.
func FuzzClusterOverLoad(f *testing.F) {
	f.Add(`{"version":1,"bounds":{"MinX":0,"MinY":0,"MaxX":50,"MaxY":50},"radius":20,"positions":[{"X":1,"Y":1},{"X":5,"Y":5},{"X":40,"Y":40}]}`)
	f.Fuzz(func(t *testing.T, in string) {
		nw, err := Load(strings.NewReader(in))
		if err != nil {
			return
		}
		if nw.N() > 200 {
			t.Skip("huge input")
		}
		// Cluster validity is checked in the cluster package; here we only
		// assert the graph invariants clustering relies on.
		if nw.G.N() != len(nw.Positions) {
			t.Fatal("graph size mismatch")
		}
	})
}
