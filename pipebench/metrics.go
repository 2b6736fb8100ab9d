package main

// layerMetric is one per-layer metric of a traced run: its unit and how it
// is computed from the tracer's sums over all traced ops.
type layerMetric struct {
	name, unit string
	value      func(s sums) float64
}

// sums wraps the tracer's accumulated values with the per-op context.
type sums struct {
	m        map[string]float64
	ops      float64 // traced ops
	tracedMS float64 // mean traced op time
	refMS    float64 // mean untraced op time on the same configuration
}

// perOp is a total per traced op: milliseconds, MiB, counts.
func perOp(key string) func(s sums) float64 {
	return func(s sums) float64 { return s.m[key] / s.ops }
}

// ratio is num/den over the whole run (0 when the layer did not run).
func ratio(num, den string) func(s sums) float64 {
	return func(s sums) float64 {
		if s.m[den] == 0 {
			return 0
		}
		return s.m[num] / s.m[den]
	}
}

// speedup is the one-worker time over the two-worker time of a twin pair.
func speedup(name string) func(s sums) float64 { return ratio(name+".w1", name+".w2") }

// layerMetrics lists every per-layer metric in BENCHMARK.json order. A
// "_ms" metric is self time per op inside the layer's calls; a "_des_ms"
// metric is the calendar engine's time per op on the inputs of the scalar
// calls; a "_w2_speedup" is the time of a sharded call at one worker over
// its time at two, on identical inputs. Metrics of a layer the workload
// does not run read 0.
var layerMetricDefs = []layerMetric{
	{"topology.sample_ms", "ms", perOp("topology.sample_ms")},
	{"topology.build_w2_speedup", "x", speedup("topology.build")},
	{"cluster.elect_ms", "ms", perOp("cluster.elect_ms")},
	{"cluster.heads_per_node", "ratio", ratio("cluster.heads", "cluster.nodes")},
	{"cluster.elect_w2_speedup", "x", speedup("cluster.elect")},
	{"coverage.digest25_ms", "ms", perOp("coverage.digest25_ms")},
	{"coverage.digest3_ms", "ms", perOp("coverage.digest3_ms")},
	{"coverage.digest3_w2_speedup", "x", speedup("coverage.digest3")},
	{"coverage.digest3_alloc_mib", "MiB", perOp("coverage.digest3_alloc")},
	{"backbone.select_ms", "ms", perOp("backbone.select_ms")},
	{"backbone.size_per_node", "ratio", ratio("backbone.size", "backbone.nodes")},
	{"backbone.select_w2_speedup", "x", speedup("backbone.select")},
	{"mocds.select_ms", "ms", perOp("mocds.select_ms")},
	{"mocds.size_per_node", "ratio", ratio("mocds.size", "mocds.nodes")},
	{"mocds.select_w2_speedup", "x", speedup("mocds.select")},
	{"dynamicb.init_ms", "ms", perOp("dynamicb.init_ms")},
	{"dynamicb.init_w2_speedup", "x", speedup("dynamicb.init")},
	{"dynamicb.init_alloc_mib", "MiB", perOp("dynamicb.init_alloc")},
	{"dynamicb.broadcast_ms", "ms", perOp("dynamicb.broadcast_ms")},
	{"dynamicb.forward_per_node", "ratio", ratio("dynamicb.forward", "dynamicb.nodes")},
	{"broadcast.ideal_ms", "ms", perOp("broadcast.ideal_ms")},
	{"broadcast.ideal_des_ms", "ms", perOp("broadcast.ideal_des_ms")},
	{"broadcast.redundancy", "ratio", ratio("broadcast.ideal_dups", "broadcast.ideal_received")},
	{"broadcast.lossy_ms", "ms", perOp("broadcast.lossy_ms")},
	{"broadcast.lossy_des_ms", "ms", perOp("broadcast.lossy_des_ms")},
	{"broadcast.timed_ms", "ms", perOp("broadcast.timed_ms")},
	{"broadcast.timed_des_ms", "ms", perOp("broadcast.timed_des_ms")},
	{"broadcast.mac_ms", "ms", perOp("broadcast.mac_ms")},
	{"broadcast.mac_des_ms", "ms", perOp("broadcast.mac_des_ms")},
	{"broadcast.mac_des_w2_speedup", "x", speedup("broadcast.mac_des")},
	{"broadcast.mac_lost_copy_frac", "ratio", ratio("broadcast.mac_lost", "broadcast.mac_copies")},
	{"broadcast.mac_multi_ms", "ms", perOp("broadcast.mac_multi_ms")},
	{"broadcast.mac_multi_des_ms", "ms", perOp("broadcast.mac_multi_des_ms")},
	{"broadcast.mac_multi_collision_frac", "ratio", ratio("broadcast.mac_multi_lost", "broadcast.mac_multi_copies")},
	{"broadcast.mac_multi_cross_frac", "ratio", ratio("broadcast.mac_multi_cross", "broadcast.mac_multi_collisions")},
	{"broadcast.mac_multi_slots", "slots", ratio("broadcast.mac_multi_slots", "broadcast.mac_multi_runs")},
	{"broadcast.mac_multi_alloc_mib", "MiB", perOp("broadcast.mac_multi_alloc")},
	{"sim.wire_ms", "ms", perOp("sim.wire_ms")},
	{"sim.wire_des_ms", "ms", perOp("sim.wire_des_ms")},
	{"sim.messages_per_node", "ratio", ratio("sim.messages", "sim.nodes")},
	{"workload.generate_ms", "ms", perOp("workload.generate_ms")},
	{"workload.run_ms", "ms", perOp("workload.run_ms")},
	{"workload.delivery_ratio", "ratio", ratio("workload.delivery", "workload.traffic_runs")},
	{"workload.discovery_success", "ratio", ratio("workload.found", "workload.requests")},
	{"routing.extract_ms", "ms", perOp("routing.extract_ms")},
	{"experiment.self_ms", "ms", perOp("experiment.self_ms")},
	{"experiment.replicates", "count", perOp("experiment.replicates")},
	{"experiment.replicate_w2_speedup", "x", speedup("experiment.replicate")},
	{"trace.run_ms", "ms", func(s sums) float64 { return s.tracedMS }},
	{"trace.overhead_frac", "ratio", func(s sums) float64 { return s.tracedMS/s.refMS - 1 }},
}

// layerMetrics computes every per-layer metric of a traced run.
func layerMetrics(m map[string]float64, ops int, tracedMS, refMS float64) map[string]metric {
	s := sums{m: m, ops: float64(ops), tracedMS: tracedMS, refMS: refMS}
	out := make(map[string]metric, len(layerMetricDefs))
	for _, d := range layerMetricDefs {
		out[d.name] = metric{d.value(s), d.unit}
	}
	return out
}
