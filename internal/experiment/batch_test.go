package experiment

import (
	"fmt"
	"testing"

	"clustercast/internal/broadcast"
	"clustercast/internal/faults"
	"clustercast/internal/obs"
	"clustercast/internal/stats"
)

// batchRule spans just over two replicate batches (130 = 2·64 + 2), so the
// fold exercises full batches, a partial tail batch, and multiple workers.
var batchRule = stats.StopRule{Confidence: 0.95, RelHalfWidth: 0.5, MinReplicates: 130, MaxReplicates: 130}

// withBatch runs f with the 64-wide opt-in enabled and restores the
// default afterwards (the toggle is process-global, like Parallelism).
func withBatch(t *testing.T, f func()) {
	t.Helper()
	SetBatchReplication(true)
	defer SetBatchReplication(false)
	f()
}

// TestUseBatchGating: the batch path needs both the opt-in and a batchable
// spec; churn and partition specs always fall back to scalar.
func TestUseBatchGating(t *testing.T) {
	lossy := faults.Spec{LossGood: 0.2}
	churn := faults.Spec{MeanUp: 100, MeanDown: 50}
	if useBatch(lossy) {
		t.Error("useBatch true with the opt-in off")
	}
	withBatch(t, func() {
		if !useBatch(lossy) {
			t.Error("useBatch false for an iid loss spec with the opt-in on")
		}
		if useBatch(churn) {
			t.Error("useBatch true for a churn spec: node churn has no batch kernel")
		}
	})
}

// TestBatchSweepPointMatchesScalarLanes is the experiment-level half of the
// equivalence bar: BatchSweepPoint must produce, bit for bit, the Point
// that the scalar engine yields when each replicate rep is decomposed as
// (batch = rep/64, lane = rep%64) — same topology label discipline, same
// source draw, the kernel's Lane view, and the lane view of the batch's
// fault chains — at every worker count.
func TestBatchSweepPointMatchesScalarLanes(t *testing.T) {
	kernels := []struct {
		name   string
		kernel BatchKernel
	}{
		{"flooding", floodingKernel},
		{"static-2.5hop", staticCDSKernel},
		{"mo-cds", mocdsKernel},
		{"gossip-0.7", gossipKernel(0.7, 77)},
	}
	specs := []struct {
		name string
		mk   func(seed uint64, batch int) faults.Spec
	}{
		{"ideal", func(uint64, int) faults.Spec { return faults.Spec{} }},
		{"iid-0.25", func(seed uint64, batch int) faults.Spec {
			return faults.Spec{LossGood: 0.25, Seed: batchSeed(seed, batch)}
		}},
		{"burst-0.2-4", func(seed uint64, batch int) faults.Spec {
			var sp faults.Spec
			if err := sp.SetBurst(0.2, 4); err != nil {
				t.Fatal(err)
			}
			sp.Seed = batchSeed(seed, batch)
			return sp
		}},
	}
	for _, k := range kernels {
		for _, sp := range specs {
			t.Run(k.name+"/"+sp.name, func(t *testing.T) {
				sc := DefaultScenario(30, 8, 21)
				sc.Rule = batchRule
				label := fmt.Sprintf("batcheq-%s-%s", k.name, sp.name)
				spec := func(batch int) faults.Spec { return sp.mk(sc.Seed, batch) }

				ws := NewWorkspace()
				want, err := stats.Replicate(sc.Rule, func(rep int) (float64, bool) {
					batch, lane := rep/64, rep%64
					d, ok := sampledWS(label)(ws, sc, batch)
					if !ok {
						return 0, false
					}
					proto := k.kernel(ws, d.nw, d.cl, d.src, batch).Lane(lane)
					var opt broadcast.Options
					if s := spec(batch); s.Enabled() {
						opt.Faults = faults.LaneModel{Batch: faults.NewChainBatch(s), Lane: lane}
					}
					res := broadcast.RunOpts(d.nw.G, d.src, proto, opt)
					return res.DeliveryRatio(d.nw.N()), true
				})
				if err != nil {
					t.Fatal(err)
				}
				ref := Point{X: 1, Mean: want.Mean(), CI: want.CI(0.99), Reps: want.N()}

				for workers := 1; workers <= 8; workers++ {
					got := BatchSweepPoint(sc, workers, 1, label, spec, k.kernel)
					if got != ref {
						t.Errorf("workers=%d: batch point %+v != scalar-lane reference %+v", workers, got, ref)
					}
				}
			})
		}
	}
}

// TestBatchSweepPointRecordsStages: the batch path folds its workers'
// stage clocks into the global stage table like the group path does, so a
// -batch run's manifest carries the sample time of its batched points.
func TestBatchSweepPointRecordsStages(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	defer obs.ResetStages()
	sc := DefaultScenario(30, 8, 21)
	sc.Rule = batchRule
	ideal := func(int) faults.Spec { return faults.Spec{} }
	for _, workers := range []int{1, 2} {
		obs.ResetStages()
		if p := BatchSweepPoint(sc, workers, 1, "batch-stages", ideal, floodingKernel); p.Missing() {
			t.Fatalf("workers=%d: batch point missing", workers)
		}
		var sample obs.StageStat
		for _, st := range obs.StageSnapshot() {
			if st.Name == "sample" {
				sample = st
			}
		}
		if sample.Count < 1 {
			t.Errorf("workers=%d: no sample stage recorded: %v", workers, obs.StageSnapshot())
		}
	}
}

// TestBatchFiguresWorkerInvariant: with the opt-in on, whole figures keep
// the bit-identical-across-worker-counts contract the scalar path has.
func TestBatchFiguresWorkerInvariant(t *testing.T) {
	figs := map[string]func() *Figure{
		"lossy": func() *Figure { return Lossy([]float64{0, 0.2}, 25, 8, 19, batchRule) },
		"burst": func() *Figure { return Burstiness([]float64{2, 8}, 0.2, 25, 8, 19, batchRule) },
		"gossip": func() *Figure {
			return GossipAblation([]float64{0.4, 0.8}, []float64{0, 0.2}, 25, 8, 19, batchRule)
		},
	}
	withBatch(t, func() {
		defer SetParallelism(0)
		for name, mk := range figs {
			SetParallelism(1)
			seq := mk().CSV()
			for _, workers := range []int{3, 8} {
				SetParallelism(workers)
				if par := mk().CSV(); par != seq {
					t.Errorf("%s: CSV differs between 1 and %d workers with batch replication on", name, workers)
				}
			}
		}
	})
}

// TestBatchFigureFallbackSeries: the dynamic backbone has no batch kernel,
// so its series must be byte-identical whether the opt-in is on or off —
// and the batched figure must still measure it (no missing points).
func TestBatchFigureFallbackSeries(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(2)
	mk := func() *Figure { return Lossy([]float64{0.1, 0.3}, 25, 8, 23, batchRule) }
	scalar := mk()
	var batched *Figure
	withBatch(t, func() { batched = mk() })
	var scalarDyn, batchedDyn *Series
	for i := range scalar.Series {
		if scalar.Series[i].Name == "dynamic-2.5hop" {
			scalarDyn = &scalar.Series[i]
		}
		if batched.Series[i].Name == "dynamic-2.5hop" {
			batchedDyn = &batched.Series[i]
		}
	}
	if scalarDyn == nil || batchedDyn == nil {
		t.Fatal("dynamic-2.5hop series missing from the lossy figure")
	}
	for i := range scalarDyn.Points {
		if scalarDyn.Points[i] != batchedDyn.Points[i] {
			t.Errorf("point %d: scalar-only series changed under the batch opt-in: %+v vs %+v",
				i, scalarDyn.Points[i], batchedDyn.Points[i])
		}
	}
	for _, s := range batched.Series {
		for i, p := range s.Points {
			if p.Missing() {
				t.Errorf("batched lossy: series %s point %d is missing", s.Name, i)
			}
		}
	}
}
