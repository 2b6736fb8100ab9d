package experiment

import (
	"runtime"
	"testing"

	"clustercast/internal/coverage"
)

// TestBuildWorkersBitIdentical pins the -buildworkers contract at the
// experiment layer: cutting every construction layer (unit-disk sweep,
// coverage digest, gateway and MO_CDS selection, dynamic-backbone init)
// into more strips changes no estimator's numbers — means, CIs and
// replicate counts are equal to the default one-strip run point for
// point.
func TestBuildWorkersBitIdentical(t *testing.T) {
	ests := []struct {
		name string
		est  WSEstimator
	}{
		{"static-size-2.5hop", StaticSizeEstimatorWS(coverage.Hop25)},
		{"static-size-3hop", StaticSizeEstimatorWS(coverage.Hop3)},
		{"mocds-size", MOCDSSizeEstimatorWS()},
		{"dynamic-fwd-2.5hop", DynamicForwardEstimatorWS(coverage.Hop25)},
		{"static-fwd-2.5hop", StaticForwardEstimatorWS(coverage.Hop25)},
		{"mocds-fwd", MOCDSForwardEstimatorWS()},
	}
	ns := smallNs()
	defer SetBuildWorkers(0)
	// The effective worker count is clamped to GOMAXPROCS; lift it so the
	// sharded dispatch actually runs even on a single-core box (the
	// goroutines just timeslice — identity is what's under test).
	if runtime.GOMAXPROCS(0) < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	for _, p := range ests {
		SetBuildWorkers(0)
		want := sweepWS(p.name, ns, 6, 33, fastRule(), p.est)
		for _, w := range []int{1, 4} {
			SetBuildWorkers(w)
			got := sweepWS(p.name, ns, 6, 33, fastRule(), p.est)
			for i := range want.Points {
				if got.Points[i] != want.Points[i] {
					t.Errorf("%s buildworkers=%d: point %d = %+v, sequential %+v",
						p.name, w, i, got.Points[i], want.Points[i])
				}
			}
		}
	}
}

// The configured value is clamped to GOMAXPROCS for the goroutine count;
// 0 disables the knob entirely.
func TestBuildWorkersSetAndClamp(t *testing.T) {
	defer SetBuildWorkers(0)
	SetBuildWorkers(3)
	if BuildWorkers() != 3 {
		t.Fatalf("BuildWorkers() = %d, want 3", BuildWorkers())
	}
	if w := effectiveBuildWorkers(); w < 1 {
		t.Fatalf("effectiveBuildWorkers() = %d with knob on, want >= 1", w)
	}
	SetBuildWorkers(-5)
	if BuildWorkers() != 0 || effectiveBuildWorkers() != 0 {
		t.Fatalf("negative set must disable: got %d/%d", BuildWorkers(), effectiveBuildWorkers())
	}
}
