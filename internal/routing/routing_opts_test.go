package routing

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"clustercast/internal/broadcast"
	"clustercast/internal/faults"
	"clustercast/internal/geom"
	"clustercast/internal/graph"
	"clustercast/internal/rng"
	"clustercast/internal/topology"
)

// TestRouteLenTotal: Len is total over degenerate routes (the old
// `len(Hops)-1` returned -1 on empty).
func TestRouteLenTotal(t *testing.T) {
	cases := []struct {
		route *Route
		want  int
	}{
		{nil, 0},
		{&Route{}, 0},
		{&Route{Hops: []int{3}}, 0},
		{&Route{Hops: []int{0, 1}}, 1},
		{&Route{Hops: []int{0, 1, 2}}, 2},
	}
	for i, tc := range cases {
		if got := tc.route.Len(); got != tc.want {
			t.Fatalf("case %d: Len() = %d, want %d", i, got, tc.want)
		}
	}
}

// TestValidateDegenerate: Validate is total over nil/empty/single-node
// routes, and src==dst accepts exactly the single-node route.
func TestValidateDegenerate(t *testing.T) {
	g := pathGraph(4)
	if err := (*Route)(nil).Validate(g, 0, 0); err == nil {
		t.Fatal("nil route validated")
	}
	if err := (&Route{}).Validate(g, 2, 2); err == nil {
		t.Fatal("empty route validated")
	}
	if err := (&Route{Hops: []int{2}}).Validate(g, 2, 2); err != nil {
		t.Fatalf("single-node src==dst route rejected: %v", err)
	}
	if err := (&Route{Hops: []int{1}}).Validate(g, 2, 2); err == nil {
		t.Fatal("wrong single node validated for src==dst")
	}
	if err := (&Route{Hops: []int{2, 1, 2}}).Validate(g, 2, 2); err == nil {
		t.Fatal("closed walk validated for src==dst")
	}
	if err := (&Route{Hops: []int{2}}).Validate(g, 2, 3); err == nil {
		t.Fatal("single-node route validated for src!=dst")
	}
}

// TestDiscoverOptsDispatchesMAC: the diamond 0-{1,2}-3 under Jitter 0
// makes nodes 1 and 2 relay in the same slot, so node 3 hears a
// collision and is never reached — observable only if DiscoverOpts
// really runs the MAC engine (the ideal radio always reaches 3, which
// was exactly the Discover bug).
func TestDiscoverOptsDispatchesMAC(t *testing.T) {
	gd := newDiamond()
	if _, err := Discover(gd, 0, 3, broadcast.Flooding{}); err != nil {
		t.Fatalf("ideal discovery failed on the diamond: %v", err)
	}
	if _, err := DiscoverOpts(gd, 0, 3, broadcast.Flooding{}, Options{MAC: true}, nil); err != ErrUnreachable {
		t.Fatalf("MAC discovery through a guaranteed collision: err = %v, want ErrUnreachable", err)
	}
	// With a contention window the flood eventually threads through.
	found := false
	for seed := uint64(0); seed < 32; seed++ {
		if r, err := DiscoverOpts(gd, 0, 3, broadcast.Flooding{}, Options{MAC: true, Jitter: 3, Seed: seed}, nil); err == nil {
			if err := r.Validate(gd, 0, 3); err != nil {
				t.Fatal(err)
			}
			found = true
			break
		}
	}
	if !found {
		t.Fatal("jittered MAC discovery never succeeded on the diamond")
	}
}

// TestDiscoverOptsScalarDESAgree: DiscoverOpts on the calendar engines
// returns the routes the scalar engines it replaced returned, for the
// ideal, lossy and slotted-MAC radios. The scalar routes are pinned by
// the SHA-256 digest of their rendering.
func TestDiscoverOptsScalarDESAgree(t *testing.T) {
	r := rng.New(21)
	nw, err := topology.Generate(topology.Config{
		N: 60, Bounds: geom.Square(100), AvgDegree: 10,
		RequireConnected: true, MaxAttempts: 300,
	}, r)
	if err != nil {
		t.Skip(err)
	}
	n := nw.G.N()
	opts := []Options{
		{},
		{Loss: 0.2, Seed: 5},
		{MAC: true, Jitter: 4, Seed: 9},
	}
	h := sha256.New()
	found := 0
	for trial := 0; trial < 8; trial++ {
		src, dst := r.Intn(n), r.Intn(n)
		for oi, o := range opts {
			route, err := DiscoverOpts(nw.G, src, dst, broadcast.Flooding{}, o, nil)
			if err == nil {
				found++
			}
			fmt.Fprintf(h, "%d %d %+v %v\n", trial, oi, route, err)
		}
	}
	const digest = "bc97fd81f5a2aee05be051eef27b418f8f1358c6c52781e2b49caae758dc2586"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != digest {
		t.Fatalf("routes digest %s (%d found), want the scalar engines' %s", got, found, digest)
	}
}

// TestDiscoverOptsPartitionRegression is the fault-consistency gate of
// the DiscoverOpts bugfix: with a partition active for the whole run,
// a discovered route between two same-side nodes must never traverse
// the far side — every hop's delivery went through the oracle's
// LinkUp/NodeUp checks at its delivery slot, so a cross-cut hop cannot
// appear. (Discover's ideal re-run happily routed across the cut.)
func TestDiscoverOptsPartitionRegression(t *testing.T) {
	r := rng.New(33)
	nw, err := topology.Generate(topology.Config{
		N: 80, Bounds: geom.Square(100), AvgDegree: 14,
		RequireConnected: true, MaxAttempts: 300,
	}, r)
	if err != nil {
		t.Skip(err)
	}
	n := nw.G.N()
	const cut = 50.0
	spec := faults.Spec{
		Partitions: []faults.Partition{{Start: 0, End: 1 << 20, Vertical: true, Coord: cut}},
		Seed:       7,
	}
	fo := faults.New(spec, n)
	fo.SetPositions(nw.Positions)

	side := func(v int) bool { return nw.Positions[v].X < cut }
	found := 0
	for trial := 0; trial < 200 && found < 5; trial++ {
		src, dst := r.Intn(n), r.Intn(n)
		if src == dst || side(src) != side(dst) {
			continue
		}
		for _, o := range []Options{
			{MAC: true, Jitter: 2, Seed: uint64(trial)},
			{Loss: 0.05, Seed: uint64(trial)},
		} {
			route, err := DiscoverOpts(nw.G, src, dst, broadcast.Flooding{}, o, fo)
			if err != nil {
				continue // the cut can disconnect the side; that is the point
			}
			if err := route.Validate(nw.G, src, dst); err != nil {
				t.Fatal(err)
			}
			for _, v := range route.Hops {
				if side(v) != side(src) {
					t.Fatalf("trial %d opts %+v: route %v crosses the partition at node %d",
						trial, o, route.Hops, v)
				}
			}
			found++
		}
	}
	if found == 0 {
		t.Fatal("no same-side route discovered; the regression exercised nothing")
	}
}

// TestDiscoverOptsChurnRoutesValidate: under node churn the discovered
// parent chain still forms a valid path (deliveries only commit to
// up-at-the-slot nodes; a down node can never become a hop).
func TestDiscoverOptsChurnRoutesValidate(t *testing.T) {
	r := rng.New(44)
	nw, err := topology.Generate(topology.Config{
		N: 70, Bounds: geom.Square(100), AvgDegree: 12,
		RequireConnected: true, MaxAttempts: 300,
	}, r)
	if err != nil {
		t.Skip(err)
	}
	n := nw.G.N()
	found := 0
	for trial := 0; trial < 60 && found < 10; trial++ {
		fo := faults.New(faults.Spec{MeanUp: 50, MeanDown: 8, Seed: uint64(trial)}, n)
		src, dst := r.Intn(n), r.Intn(n)
		if src == dst {
			continue
		}
		route, err := DiscoverOpts(nw.G, src, dst, broadcast.Flooding{},
			Options{MAC: true, Jitter: 1, Seed: uint64(trial)}, fo)
		if err != nil {
			continue
		}
		if err := route.Validate(nw.G, src, dst); err != nil {
			t.Fatalf("trial %d: churn route invalid: %v", trial, err)
		}
		found++
	}
	if found == 0 {
		t.Fatal("no route survived churn; the property exercised nothing")
	}
}

// newDiamond builds the 4-node diamond 0-1, 0-2, 1-3, 2-3.
func newDiamond() *graph.Graph {
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	return g
}
