package reliable

import (
	"testing"

	"clustercast/internal/faults"
	"clustercast/internal/geom"
)

func TestFaultsZeroSpecMatchesClassic(t *testing.T) {
	g := paperGraph()
	tree, _ := buildTree(t, g, 0)
	classic, err := Run(g, tree, 0, Config{Loss: 0.2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// A no-fault oracle must not change the classic outcome except for the
	// (gated) backoff bookkeeping; with no copies ever fault-dropped, no
	// sender backs off past a round in which it would have succeeded —
	// delivery must still happen.
	o := faults.New(faults.Spec{}, g.N())
	faulted, err := Run(g, tree, 0, Config{Loss: 0.2, Seed: 7, Faults: o})
	if err != nil {
		t.Fatal(err)
	}
	if !faulted.Delivered || faulted.Degraded {
		t.Fatalf("zero-spec oracle degraded the run: %+v", faulted)
	}
	if !classic.Delivered {
		t.Fatalf("classic run failed: %+v", classic)
	}
}

// TestNilOracleMatchesClassic: a nil *faults.Oracle in Config.Faults is no
// fault schedule at all, so the run is the classic one round for round —
// no backoff, no stall exit, no Degraded — over seeds whose lossy runs
// need retransmissions.
func TestNilOracleMatchesClassic(t *testing.T) {
	g := paperGraph()
	tree, _ := buildTree(t, g, 0)
	var none *faults.Oracle
	for seed := uint64(1); seed <= 20; seed++ {
		classic, err := Run(g, tree, 0, Config{Loss: 0.4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(g, tree, 0, Config{Loss: 0.4, Seed: seed, Faults: none})
		if err != nil {
			t.Fatal(err)
		}
		if *got != *classic {
			t.Errorf("seed %d: nil oracle %+v, classic %+v", seed, *got, *classic)
		}
	}
}

func TestFaultsSeveredTreeReturnsDegradedNotError(t *testing.T) {
	g := paperGraph()
	tree, _ := buildTree(t, g, 0)
	// A permanent full partition between x<0.5 and the rest: node 0 on one
	// side, everyone else on the other. The tree is severed for the whole
	// run; Run must give up with Degraded instead of erroring or spinning.
	spec := faults.Spec{Partitions: []faults.Partition{
		{Start: 0, End: 1 << 30, Vertical: true, Coord: 0.5},
	}}
	o := faults.New(spec, g.N())
	pos := positionsSplit(g.N(), 0)
	o.SetPositions(pos)
	res, err := Run(g, tree, 0, Config{Faults: o, MaxRounds: 5000})
	if err != nil {
		t.Fatalf("severed tree must not error: %v", err)
	}
	if res.Delivered {
		t.Fatal("nothing can cross a full partition")
	}
	if !res.Degraded {
		t.Fatal("undelivered faulted run must report Degraded")
	}
	if res.Rounds >= 5000 {
		t.Fatalf("stall exit did not engage: ran %d rounds", res.Rounds)
	}
}

func TestFaultsTransientOutageRidesThrough(t *testing.T) {
	g := paperGraph()
	tree, _ := buildTree(t, g, 0)
	// Partition only for rounds [1, 15): after it lifts, retransmissions
	// must complete the delivery.
	spec := faults.Spec{Partitions: []faults.Partition{
		{Start: 1, End: 15, Vertical: true, Coord: 0.5},
	}}
	o := faults.New(spec, g.N())
	o.SetPositions(positionsSplit(g.N(), 0))
	res, err := Run(g, tree, 0, Config{Faults: o})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered || res.Degraded {
		t.Fatalf("delivery must complete after the outage lifts: %+v", res)
	}
	if res.Rounds < 15 {
		t.Fatalf("delivery finished in %d rounds, inside the outage window", res.Rounds)
	}
}

func TestFaultsBackoffReducesTransmissions(t *testing.T) {
	g := paperGraph()
	tree, _ := buildTree(t, g, 0)
	spec := faults.Spec{Partitions: []faults.Partition{
		{Start: 0, End: 40, Vertical: true, Coord: 0.5},
	}}
	mk := func() *faults.Oracle {
		o := faults.New(spec, g.N())
		o.SetPositions(positionsSplit(g.N(), 0))
		return o
	}
	res, err := Run(g, tree, 0, Config{Faults: mk()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered {
		t.Fatalf("delivery must complete after the outage: %+v", res)
	}
	// During the 40-round outage the source is the only sender (nobody
	// else holds the packet) and capped exponential backoff bounds its
	// retries well below one per round.
	if res.Transmissions > 15+g.N()*4 {
		t.Fatalf("backoff did not engage: %d transmissions", res.Transmissions)
	}
}

func TestFaultsDeterministicUnderOracle(t *testing.T) {
	g := paperGraph()
	tree, _ := buildTree(t, g, 0)
	spec := faults.Spec{MeanUp: 25, MeanDown: 10, Seed: 3, LossGood: 0.1, LossBad: 0.1}
	run := func() *Result {
		o := faults.New(spec, g.N())
		res, err := Run(g, tree, 0, Config{Loss: 0.1, Seed: 9, Faults: o})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if *a != *b {
		t.Fatalf("faulted reliable runs diverge: %+v vs %+v", a, b)
	}
}

// The idle-window fast-forward must be invisible: every skipped round had
// no eligible sender, so the polling reference and the jumping run return
// identical results — under churn outages, loss chains, and the severed
// stall exit alike.
func TestFaultsFastForwardBitIdentical(t *testing.T) {
	g := paperGraph()
	tree, _ := buildTree(t, g, 0)
	specs := []faults.Spec{
		{MeanUp: 25, MeanDown: 10, Seed: 3, LossGood: 0.1, LossBad: 0.4, PGoodBad: 0.05, PBadGood: 0.2},
		{MeanUp: 8, MeanDown: 30, Seed: 11}, // long outages: deep idle windows
		{MeanUp: 40, MeanDown: 3, Seed: 5, LossGood: 0.05},
		{}, // no churn: fast-forward only jumps backoffs
	}
	for si, spec := range specs {
		for seed := uint64(0); seed < 6; seed++ {
			run := func(noFF bool) *Result {
				o := faults.New(spec, g.N())
				res, err := Run(g, tree, 0, Config{
					Loss: 0.15, Seed: seed, Faults: o, noFastForward: noFF,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			ref, ff := run(true), run(false)
			if *ref != *ff {
				t.Fatalf("spec %d seed %d: fast-forward changed the result:\n  poll %+v\n  jump %+v",
					si, seed, ref, ff)
			}
		}
	}
	// The severed-tree case: the stall exit must concede at the identical
	// round with and without the jump.
	spec := faults.Spec{Partitions: []faults.Partition{
		{Start: 0, End: 1 << 30, Vertical: true, Coord: 0.5},
	}}
	run := func(noFF bool) *Result {
		o := faults.New(spec, g.N())
		o.SetPositions(positionsSplit(g.N(), 0))
		res, err := Run(g, tree, 0, Config{Faults: o, MaxRounds: 5000, noFastForward: noFF})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if ref, ff := run(true), run(false); *ref != *ff {
		t.Fatalf("severed tree: fast-forward changed the stall exit: %+v vs %+v", ref, ff)
	}
}

// positionsSplit puts node `left` at x = 0 and everyone else at x = 1, so
// a vertical cut at 0.5 isolates it.
func positionsSplit(n, left int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		if i == left {
			pts[i] = geom.Point{X: 0, Y: 0}
		} else {
			pts[i] = geom.Point{X: 1, Y: 0}
		}
	}
	return pts
}
