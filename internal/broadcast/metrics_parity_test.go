package broadcast

import (
	"fmt"
	"reflect"
	"testing"

	"clustercast/internal/faults"
	"clustercast/internal/obs"
)

// parityCounters are the whole-run totals every broadcast engine folds; an
// engine swap (workspace ↔ map-based oracle) must leave them invariant.
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

// TestMetricsParityWorkspaceOracle: over the same runs, the workspace
// engine folds exactly the broadcast.* totals of the map-based oracle —
// for a deterministic protocol, a gossip, and a Gilbert–Elliott loss-chain
// fault spec.
func TestMetricsParityWorkspaceOracle(t *testing.T) {
	nw := randomNet(t, 91, 50, 8)
	g := nw.G
	const runs = 64
	var burst faults.Spec
	if err := burst.SetBurst(0.2, 4); err != nil {
		t.Fatal(err)
	}
	flooding := func(int) Protocol { return Flooding{} }
	ideal := func(int) Options { return Options{} }
	cases := []struct {
		name  string
		proto func(r int) Protocol
		opts  func(r int) Options // called once per run and engine: an oracle is per-run state
	}{
		{"flooding-ideal", flooding, ideal},
		{"gossip-ideal", func(r int) Protocol { return Gossip{P: 0.6, Seed: 9 + uint64(r)} }, ideal},
		{"flooding-loss", flooding, func(r int) Options {
			spec := burst
			spec.Seed = 13 + uint64(r)
			return Options{Faults: faults.New(spec, g.N())}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			workspace := counterTotals(t, parityCounters, func() {
				var ws Workspace
				for r := 0; r < runs; r++ {
					ws.RunOpts(g, 0, tc.proto(r), tc.opts(r))
				}
			})
			oracle := counterTotals(t, parityCounters, func() {
				for r := 0; r < runs; r++ {
					runIdealOracle(g, 0, tc.proto(r), tc.opts(r))
				}
			})
			if !reflect.DeepEqual(workspace, oracle) {
				t.Fatalf("workspace %v != oracle %v", workspace, oracle)
			}
			if workspace["broadcast.runs"] != runs {
				t.Fatalf("runs = %d, want %d", workspace["broadcast.runs"], runs)
			}
			if workspace["broadcast.deliveries"] == 0 {
				t.Fatal("parity on all-zero totals proves nothing")
			}
			if tc.opts(0).Faults != nil && workspace["broadcast.fault_dropped_copies"] == 0 {
				t.Fatal("the loss chain dropped no copy")
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
