package experiment

import (
	"reflect"
	"testing"

	"clustercast/internal/obs"
)

// workloadCounters are the telemetry totals the determinism gate pins
// alongside the CSV bytes.
var workloadCounters = []string{
	"workload.flows", "workload.deliveries", "workload.cross_collisions",
	"workload.discovery_requests", "workload.discovery_found", "workload.discovery_failed",
	"mac.multi_runs", "mac.multi_flows", "mac.cross_collisions",
}

// TestWorkloadFiguresBitIdentical is the workload determinism gate: the
// traffic and discovery figures produce byte-identical CSVs AND identical
// workload.* / mac.multi* metric totals at any worker count. Flow seeds are counter keys and every
// replicate's spec seed is a pure function of the replicate index, so no
// scheduling order can leak into the numbers.
func TestWorkloadFiguresBitIdentical(t *testing.T) {
	figs := map[string]func() *Figure{
		"traffic":   func() *Figure { return Traffic([]float64{0.1, 0.5}, 25, 8, 10, 2, 19, desRule) },
		"discovery": func() *Figure { return Discovery([]float64{0.1, 0.5}, 25, 8, 8, 2, 19, desRule) },
	}
	obs.Enable()
	defer obs.Disable()
	defer SetParallelism(0)

	run := func(workers int, mk func() *Figure) (string, map[string]int64) {
		SetParallelism(workers)
		before := map[string]int64{}
		for _, n := range workloadCounters {
			before[n] = obs.Default.Counter(n).Value()
		}
		csv := mk().CSV()
		deltas := map[string]int64{}
		for _, n := range workloadCounters {
			deltas[n] = obs.Default.Counter(n).Value() - before[n]
		}
		return csv, deltas
	}

	for name, mk := range figs {
		wantCSV, wantTotals := run(1, mk)
		if wantTotals["workload.flows"] == 0 && wantTotals["workload.discovery_requests"] == 0 {
			t.Fatalf("%s: baseline run offered no flows; the gate exercised nothing", name)
		}
		for _, workers := range []int{4, 8} {
			csv, totals := run(workers, mk)
			if csv != wantCSV {
				t.Errorf("%s: CSV differs at workers=%d", name, workers)
			}
			if !reflect.DeepEqual(totals, wantTotals) {
				t.Errorf("%s: metric totals differ at workers=%d:\n got %v\nwant %v",
					name, workers, totals, wantTotals)
			}
		}
	}
}
