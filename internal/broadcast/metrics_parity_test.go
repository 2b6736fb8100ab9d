package broadcast

import (
	"fmt"
	"reflect"
	"testing"

	"clustercast/internal/faults"
	"clustercast/internal/graph"
	"clustercast/internal/obs"
)

// parityCounters are the whole-run totals every broadcast engine folds; an
// engine swap (scalar ↔ calendar ↔ 64-wide batch) must leave them invariant.
var parityCounters = []string{
	"broadcast.runs", "broadcast.transmissions", "broadcast.deliveries",
	"broadcast.duplicates", "broadcast.fault_dropped_copies",
}

// counterTotals runs f with metrics enabled and returns how much each named
// counter moved (the Default registry is shared across the test binary, so
// parity is asserted on deltas, never absolutes).
func counterTotals(t *testing.T, names []string, f func()) map[string]int64 {
	t.Helper()
	before := make(map[string]int64, len(names))
	for _, n := range names {
		before[n] = obs.Default.Counter(n).Value()
	}
	obs.Enable()
	defer obs.Disable()
	f()
	out := make(map[string]int64, len(names))
	for _, n := range names {
		out[n] = obs.Default.Counter(n).Value() - before[n]
	}
	return out
}

// TestMetricsParityScalarDESBatch: one 64-wide batch run folds exactly the
// broadcast.* totals of its 64 workspace lane replays, and the map-based
// oracle folds the same totals — for a deterministic protocol, a
// lane-coin gossip, and a loss-chain fault spec.
func TestMetricsParityScalarDESBatch(t *testing.T) {
	nw := randomNet(t, 91, 50, 8)
	g := nw.G
	spec := &faults.Spec{Seed: 13}
	if err := spec.SetBurst(0.2, 1); err != nil { // burstLen 1 = i.i.d. loss
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		proto BatchProtocol
		spec  *faults.Spec
	}{
		{"flooding-ideal", BatchFlooding{}, nil},
		{"gossip-ideal", BatchGossip{P: 0.6, Seed: 9}, nil},
		{"flooding-loss", BatchFlooding{}, spec},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			laneOpts := func() []Options {
				opts := make([]Options, graph.LaneCount)
				if tc.spec != nil {
					ref := faults.NewChainBatch(*tc.spec)
					for r := range opts {
						opts[r].Faults = faults.LaneModel{Batch: ref, Lane: r}
					}
				}
				return opts
			}
			scalar := counterTotals(t, parityCounters, func() {
				var sw Workspace
				for r, o := range laneOpts() {
					sw.RunOpts(g, 0, tc.proto.Lane(r), o)
				}
			})
			oracle := counterTotals(t, parityCounters, func() {
				for r, o := range laneOpts() {
					runIdealOracle(g, 0, tc.proto.Lane(r), o)
				}
			})
			batch := counterTotals(t, parityCounters, func() {
				var opt BatchOptions
				if tc.spec != nil {
					opt.Chains = faults.NewChainBatch(*tc.spec)
				}
				var bw BatchWorkspace
				bw.Run(g, 0, tc.proto, opt)
			})
			if !reflect.DeepEqual(scalar, oracle) {
				t.Fatalf("workspace %v != oracle %v", scalar, oracle)
			}
			if !reflect.DeepEqual(scalar, batch) {
				t.Fatalf("scalar %v != batch %v", scalar, batch)
			}
			if scalar["broadcast.runs"] != graph.LaneCount {
				t.Fatalf("runs = %d, want %d", scalar["broadcast.runs"], graph.LaneCount)
			}
			if scalar["broadcast.deliveries"] == 0 {
				t.Fatal("parity on all-zero totals proves nothing")
			}
		})
	}
}

// TestMetricsParityMACWorkers: the MAC engine folds the same mac.* and
// broadcast.* totals as the scalar oracle, whatever MACOptions.Workers
// says (the engine ignores the field).
func TestMetricsParityMACWorkers(t *testing.T) {
	nw := randomNet(t, 92, 60, 9)
	g := nw.G
	macCounters := append([]string{"mac.collisions", "mac.lost_copies"}, parityCounters...)
	opt := MACOptions{Jitter: 3, Seed: 7}
	want := counterTotals(t, macCounters, func() {
		runMACOracle(g, 0, Flooding{}, opt)
	})
	if want["mac.collisions"] == 0 && want["mac.lost_copies"] == 0 {
		t.Fatal("baseline run exercised no MAC contention")
	}
	for w := 1; w <= 8; w++ {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			o := opt
			o.Workers = w
			got := counterTotals(t, macCounters, func() {
				RunMAC(g, 0, Flooding{}, o)
			})
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("workers=%d totals %v != oracle %v", w, got, want)
			}
		})
	}
}
