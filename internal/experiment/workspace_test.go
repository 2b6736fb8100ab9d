package experiment

import (
	"testing"

	"clustercast/internal/coverage"
)

// TestWorkspaceSweepsMatchLegacy proves every workspace-threaded estimator
// reproduces its allocating counterpart point-for-point: same means, CIs
// and replicate counts under the identical (seed, label, rep) randomness.
func TestWorkspaceSweepsMatchLegacy(t *testing.T) {
	pairs := []struct {
		name   string
		legacy Estimator
		ws     WSEstimator
	}{
		{"static-size-2.5hop", StaticSizeEstimator(coverage.Hop25), StaticSizeEstimatorWS(coverage.Hop25)},
		{"static-size-3hop", StaticSizeEstimator(coverage.Hop3), StaticSizeEstimatorWS(coverage.Hop3)},
		{"mocds-size", MOCDSSizeEstimator(), MOCDSSizeEstimatorWS()},
		{"dynamic-fwd-2.5hop", DynamicForwardEstimator(coverage.Hop25), DynamicForwardEstimatorWS(coverage.Hop25)},
		{"dynamic-fwd-3hop", DynamicForwardEstimator(coverage.Hop3), DynamicForwardEstimatorWS(coverage.Hop3)},
		{"static-fwd-2.5hop", StaticForwardEstimator(coverage.Hop25), StaticForwardEstimatorWS(coverage.Hop25)},
		{"static-fwd-3hop", StaticForwardEstimator(coverage.Hop3), StaticForwardEstimatorWS(coverage.Hop3)},
		{"mocds-fwd", MOCDSForwardEstimator(), MOCDSForwardEstimatorWS()},
	}
	ns := smallNs()
	legacy := map[string]Series{}
	for _, p := range pairs {
		want := sweep(p.name, ns, 6, 33, fastRule(), p.legacy)
		legacy[p.name] = want
		got := sweepWS(p.name, ns, 6, 33, fastRule(), p.ws)
		for i := range want.Points {
			if got.Points[i] != want.Points[i] {
				t.Errorf("%s: point %d = %+v, legacy %+v", p.name, i, got.Points[i], want.Points[i])
			}
		}
	}
	// The figures run series that share a label as one group; each group
	// member must still match its legacy series point for point.
	figs := []struct {
		fig    *Figure
		legacy []string // per figure series
	}{
		{Fig6(6, ns, 33, fastRule()), []string{"static-size-2.5hop", "static-size-3hop", "mocds-size"}},
		{Fig7(6, ns, 33, fastRule()), []string{"dynamic-fwd-2.5hop", "dynamic-fwd-3hop", "mocds-fwd"}},
		{Fig8(6, ns, 33, fastRule()), []string{"static-fwd-2.5hop", "static-fwd-3hop", "dynamic-fwd-2.5hop", "dynamic-fwd-3hop"}},
	}
	for _, f := range figs {
		for si, s := range f.fig.Series {
			want := legacy[f.legacy[si]]
			for i := range want.Points {
				if s.Points[i] != want.Points[i] {
					t.Errorf("%s %s: point %d = %+v, legacy %s %+v", f.fig.ID, s.Name, i, s.Points[i], f.legacy[si], want.Points[i])
				}
			}
		}
	}
}
