package experiment

import (
	"testing"

	"clustercast/internal/stats"
)

// detRule keeps the determinism checks quick: the point is bit-equality,
// not tight intervals.
var detRule = stats.StopRule{Confidence: 0.95, RelHalfWidth: 0.5, MinReplicates: 4, MaxReplicates: 8}

// TestFaultsFigureDeterministicAcrossWorkers is the acceptance criterion:
// the same fault spec and seed must produce byte-identical figure CSVs for
// any -workers value.
func TestFaultsFigureDeterministicAcrossWorkers(t *testing.T) {
	qs := []float64{0, 0.2}
	defer SetParallelism(0)
	SetParallelism(1)
	seq := Faults(qs, 30, 8, 11, detRule).CSV()
	SetParallelism(4)
	par := Faults(qs, 30, 8, 11, detRule).CSV()
	if seq != par {
		t.Fatalf("faults CSV differs between 1 and 4 workers:\n--- w=1\n%s--- w=4\n%s", seq, par)
	}
}

func TestBurstinessFigureDeterministicAcrossWorkers(t *testing.T) {
	ls := []float64{1, 8}
	defer SetParallelism(0)
	SetParallelism(1)
	seq := Burstiness(ls, 0.2, 30, 8, 13, detRule).CSV()
	SetParallelism(5)
	par := Burstiness(ls, 0.2, 30, 8, 13, detRule).CSV()
	if seq != par {
		t.Fatalf("burst CSV differs between 1 and 5 workers:\n--- w=1\n%s--- w=5\n%s", seq, par)
	}
}

// TestBurstinessRejectedLengthPlotsMissing: a burst length SetBurst
// rejects (below 1) has no link model, so every series plots a missing
// point there and still measures the valid lengths.
func TestBurstinessRejectedLengthPlotsMissing(t *testing.T) {
	f := Burstiness([]float64{0.5, 2}, 0.2, 25, 8, 19, detRule)
	for _, s := range f.Series {
		if p := s.Points[0]; !p.Missing() || p.X != 0.5 {
			t.Errorf("%s: rejected length plotted %+v, want a missing point at 0.5", s.Name, p)
		}
		if s.Points[1].Missing() {
			t.Errorf("%s: valid length 2 is missing", s.Name)
		}
	}
}

// TestBurstinessLengthOneMatchesIIDLossy pins the strict-generalization
// claim: a Gilbert–Elliott chain with mean burst length 1 and stationary
// rate p is an i.i.d. loss process, so the delivery ratios must land in the
// same ballpark as the independent-loss model at the same rate (they use
// different coins, so only the means are comparable, not the bits).
func TestBurstinessLengthOneMatchesIIDLossy(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical comparison")
	}
	rule := stats.StopRule{Confidence: 0.95, RelHalfWidth: 0.2, MinReplicates: 15, MaxReplicates: 40}
	defer SetParallelism(0)
	SetParallelism(0)
	burst := Burstiness([]float64{1}, 0.2, 40, 10, 17, rule)
	lossy := Lossy([]float64{0.2}, 40, 10, 17, rule)
	// Compare the flooding series (series 0 in both figures).
	b, l := burst.Series[0].Points[0], lossy.Series[0].Points[0]
	if b.Missing() || l.Missing() {
		t.Fatal("missing points in comparison figures")
	}
	if diff := b.Mean - l.Mean; diff > 0.1 || diff < -0.1 {
		t.Errorf("L=1 burst flooding delivery %.3f vs i.i.d. %.3f — should be close", b.Mean, l.Mean)
	}
}
