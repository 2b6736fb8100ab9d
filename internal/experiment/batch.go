package experiment

import (
	"sync/atomic"

	"clustercast/internal/backbone"
	"clustercast/internal/broadcast"
	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/faults"
	"clustercast/internal/stats"
	"clustercast/internal/topology"
)

// batchReplication is the opt-in for 64-wide bit-parallel replication,
// behind an atomic like the worker count. Off by default: the batch path
// samples one topology per 64 replicate lanes and draws its randomness from
// the lane-indexed coin discipline, so its figures are a different (equally
// valid) Monte-Carlo sample than the legacy scalar stream — flipping the
// opt-in intentionally changes CSV bytes, while worker counts never do.
var batchReplication atomic.Bool

// SetBatchReplication toggles the 64-wide replication path for subsequent
// figure runs. Series whose protocol has no batch kernel, and fault specs
// outside faults.BatchSupported (churn, partitions), fall back to the
// scalar path regardless.
func SetBatchReplication(on bool) { batchReplication.Store(on) }

// BatchReplication reports whether the 64-wide path is enabled.
func BatchReplication() bool { return batchReplication.Load() }

// useBatch reports whether one series runs batched: the opt-in is on and
// the spec family is batchable. (Kernel coverage is the caller's half: a
// series with no BatchKernel stays scalar unconditionally.)
func useBatch(spec faults.Spec) bool {
	return BatchReplication() && faults.BatchSupported(spec)
}

// batchSeed derives replicate-batch b's fault/protocol seed from a point
// seed, mixing multiplicatively like Scenario.Sample so adjacent batches
// land on unrelated streams.
func batchSeed(seed uint64, batch int) uint64 {
	return seed ^ uint64(batch)*0x9E3779B97F4A7C15
}

// BatchKernel builds one replicate-batch's 64-wide protocol from the
// sampled topology. Anything it borrows from the workspace (backbone
// bitsets, coverage sets) is valid for the duration of the batch run.
type BatchKernel func(ws *Workspace, nw *topology.Network, cl *cluster.Clustering, src, batch int) broadcast.BatchProtocol

// BatchSweepPoint measures one data point through the bit-parallel engine:
// replicate-batch b samples one topology/clustering/source (label, rep=b —
// the scalar sampling discipline, shared by all 64 lanes of the batch),
// builds the series' kernel and the 64-lane loss chains for spec(b), runs
// one 64-wide broadcast, and folds the lanes' delivery ratios through the
// stopping rule in strict replicate order (stats.ReplicateBatch). Workers
// each advance independent batches on pooled per-worker workspaces; the
// Point is bit-identical for every worker count.
func BatchSweepPoint(sc Scenario, workers int, x float64, label string, spec func(batch int) faults.Spec, kernel BatchKernel) Point {
	wss := make(workerSpaces, max(workers, 1))
	defer wss.release()
	sample := sampledWS(label)
	sum, err := stats.ReplicateBatch(sc.Rule, workers, func(worker, batch int) stats.BatchObs {
		var o stats.BatchObs
		ws := wss.get(worker)
		d, ok := sample(ws, sc, batch)
		if !ok {
			return o // every lane of the batch shares the discarded sample
		}
		k := kernel(ws, d.nw, d.cl, d.src, batch)
		if k == nil {
			return o
		}
		var opt broadcast.BatchOptions
		if sp := spec(batch); sp.Enabled() {
			opt.Chains = faults.NewChainBatch(sp)
		}
		res := ws.Batch.Run(d.nw.G, d.src, k, opt)
		n := d.nw.N()
		for l := range o.X {
			o.X[l] = res.DeliveryRatio(l, n)
			o.OK[l] = true
		}
		return o
	})
	return measured(x, sum, err)
}

// lossPoint is one point of a link-loss series: the label its replicates
// sample under, the link model, the series' 64-wide kernel (nil: scalar
// only), and its scalar estimator (nil: no valid link model at this x).
type lossPoint struct {
	label  string
	link   faults.Spec
	kernel BatchKernel
	est    WSEstimator
}

// lossSweep sweeps one series of a link-loss figure: at(x) describes the
// point plotted at x. A point runs on the 64-wide engine — batch b's link
// model seeded batchSeed(seed, b) — when it has a kernel and the opt-in
// covers its link model, and otherwise replicates its scalar estimator on
// reps workers, or on as many as the pool has when reps is 0.
func lossSweep(name string, pts []point, reps int, at func(x float64) lossPoint) Series {
	return sweepPoints([]string{name}, pts, func(p point, workers int) []Point {
		lp := at(p.x)
		if lp.est == nil {
			return []Point{{X: p.x}} // no valid link model: a missing point
		}
		if lp.kernel != nil && useBatch(lp.link) {
			spec := func(batch int) faults.Spec {
				sp := lp.link
				sp.Seed = batchSeed(p.sc.Seed, batch)
				return sp
			}
			return []Point{BatchSweepPoint(p.sc, workers, p.x, lp.label, spec, lp.kernel)}
		}
		if reps > 0 {
			workers = reps
		}
		return groupPoint(p.sc, p.x, workers, 1, alone(lp.est))
	})[0]
}

// The batch kernels of the figure series that claim batch support. Each
// mirrors its scalar runOne counterpart exactly: same backbone
// construction, same forward set, only the engine width differs.

// floodingKernel is blind flooding, 64 lanes wide.
func floodingKernel(ws *Workspace, nw *topology.Network, cl *cluster.Clustering, src, batch int) broadcast.BatchProtocol {
	return broadcast.BatchFlooding{}
}

// staticCDSKernel broadcasts over the paper's static 2.5-hop backbone,
// built workspace-backed like StaticForwardEstimatorWS.
func staticCDSKernel(ws *Workspace, nw *topology.Network, cl *cluster.Clustering, src, batch int) broadcast.BatchProtocol {
	ws.Digest(nw.G, cl, coverage.Hop25)
	nodes := ws.Backbone.StaticNodes(&ws.Builder, cl, backbone.Options{})
	return broadcast.BatchStaticCDS{Set: nodes, Label: "static-2.5hop"}
}

// mocdsKernel broadcasts over the MO_CDS baseline.
func mocdsKernel(ws *Workspace, nw *topology.Network, cl *cluster.Clustering, src, batch int) broadcast.BatchProtocol {
	ws.Digest(nw.G, cl, coverage.Hop3)
	nodes := ws.MOCDS.NodesFrom(&ws.Builder, cl)
	return broadcast.BatchStaticCDS{Set: nodes, Label: "mo-cds"}
}

// gossipKernel forwards with probability p; each batch draws its coin words
// from a fresh seed so batches stay independent samples.
func gossipKernel(p float64, seed uint64) BatchKernel {
	return func(ws *Workspace, nw *topology.Network, cl *cluster.Clustering, src, batch int) broadcast.BatchProtocol {
		return broadcast.BatchGossip{P: p, Seed: batchSeed(seed, batch)}
	}
}
