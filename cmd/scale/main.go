// Command scale drives the backbone kernels at 10k–100k-node topologies —
// the scale-out regime two to three orders of magnitude past the paper's
// n≤500 sweeps — and reports per-replicate wall-clock and memory, so the
// scaling curves of BenchmarkScaleReplicate and BenchmarkScaleKernels can
// be reproduced (and profiled) outside the Go benchmark harness.
//
// Each replicate samples a connected unit-disk topology through the
// workspace path, then runs the requested stages: static25 (2.5-hop static
// backbone size), mocds (MO_CDS baseline size), dynamic25 (one dynamic-
// backbone broadcast, forward-node count). -buildworkers cuts every
// construction layer — unit-disk sweep, coverage digest, gateway and
// MO_CDS selection, dynamic-backbone init — into that many strips run on
// as many goroutines; the results are bit-identical for any value.
//
// With -manifest the run records a reproducibility manifest (invocation,
// environment, per-stage wall/alloc from the obs registry); with -trace the
// first dynamic25 replicate records its broadcast event stream as JSONL
// for cmd/trace.
//
//	scale -n 50000 -d 18 -seed 2003 -reps 3 -buildworkers 4
//	scale -n 10000 -stages dynamic25 -cpuprofile cpu.pprof -memprofile mem.pprof
//	scale -n 2000 -stages dynamic25 -trace trace.jsonl -manifest manifest.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"clustercast/internal/backbone"
	"clustercast/internal/coverage"
	"clustercast/internal/experiment"
	"clustercast/internal/obs"
	"clustercast/internal/obs/live"
	"clustercast/internal/topology"
)

type config struct {
	n      int
	d      float64
	seed   uint64
	reps   int
	buildW int
	stages string
	trace  string
	run    live.Flags
}

func main() {
	var cfg config
	flag.IntVar(&cfg.n, "n", 10000, "number of nodes")
	flag.Float64Var(&cfg.d, "d", 18, "target average degree")
	flag.Uint64Var(&cfg.seed, "seed", 2003, "base RNG seed")
	flag.IntVar(&cfg.reps, "reps", 3, "replicates per stage")
	flag.IntVar(&cfg.buildW, "buildworkers", 0,
		"strips per construction layer — unit-disk sweep, coverage digest, gateway and MO_CDS selection, dynamic-backbone init — "+
			"run on as many goroutines (0 or 1: one strip; results are bit-identical for any value)")
	flag.StringVar(&cfg.stages, "stages", "static25,mocds,dynamic25", "comma-separated stages to run")
	flag.StringVar(&cfg.trace, "trace", "", "record the first dynamic25 replicate's event stream (JSONL) to this file")
	cfg.run.Register(flag.CommandLine)
	flag.Parse()

	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "scale: %v\n", err)
		os.Exit(1)
	}
}

// stageFunc runs one kernel over an already-sampled network and returns its
// headline measurement (backbone size or forward-node count). tr is non-nil
// only on the replicate whose event stream the user asked to record; stages
// without trace support ignore it.
type stageFunc func(ws *experiment.Workspace, nw *topology.Network, source int, tr *obs.Tracer) float64

// stages are the kernels -stages picks from, by name.
var stages = map[string]stageFunc{
	"static25": func(ws *experiment.Workspace, nw *topology.Network, _ int, _ *obs.Tracer) float64 {
		cl := ws.Elect(nw.G)
		ws.Digest(nw.G, cl, coverage.Hop25)
		return float64(ws.Backbone.StaticSize(&ws.Builder, cl, backbone.Options{}))
	},
	"mocds": func(ws *experiment.Workspace, nw *topology.Network, _ int, _ *obs.Tracer) float64 {
		cl := ws.Elect(nw.G)
		ws.Digest(nw.G, cl, coverage.Hop3)
		return float64(ws.MOCDS.SizeFrom(&ws.Builder, cl))
	},
	"dynamic25": func(ws *experiment.Workspace, nw *topology.Network, source int, tr *obs.Tracer) float64 {
		cl := ws.Elect(nw.G)
		p := ws.Dynamic.NewWith(nw.G, cl, coverage.Hop25)
		// Set unconditionally: the pooled protocol keeps its tracer
		// across NewWith, so untraced replicates must clear it.
		p.SetTracer(tr)
		return float64(p.BroadcastWS(source).ForwardCount())
	},
}

// tracedStage is the stage whose event stream -trace records.
const tracedStage = "dynamic25"

// run executes the configured stages. The named return lets the deferred
// session close (manifest, final heartbeat, self-scrape, profiles) surface
// its error; telemetry status goes to stderr, out carries the report.
func run(cfg config, out io.Writer) (retErr error) {
	if cfg.buildW < 0 {
		return fmt.Errorf("-buildworkers %d: must not be negative", cfg.buildW)
	}
	sess, err := cfg.run.Start("scale", os.Stderr)
	if err != nil {
		return err
	}
	defer sess.Close(&retErr)
	experiment.SetBuildWorkers(cfg.buildW)
	var names []string
	for _, s := range strings.Split(cfg.stages, ",") {
		s = strings.TrimSpace(s)
		if _, ok := stages[s]; !ok {
			return fmt.Errorf("unknown stage %q (have static25, mocds, dynamic25)", s)
		}
		names = append(names, s)
	}
	if cfg.reps < 1 {
		return fmt.Errorf("-reps %d: need at least one replicate", cfg.reps)
	}

	var tracer *obs.Tracer
	if cfg.trace != "" {
		traced := false
		for _, n := range names {
			traced = traced || n == tracedStage
		}
		if !traced {
			return fmt.Errorf("-trace needs the %s stage selected (have %s)", tracedStage, cfg.stages)
		}
		// One broadcast emits O(m) deliver/duplicate events plus the
		// per-head protocol events; 16 slots per node keeps paper-density
		// (d=18) traces loss-free with headroom.
		tracer = obs.NewTracer(16 * cfg.n)
	}

	sess.Manifest.Seed = cfg.seed
	sess.Manifest.Param("n", cfg.n).Param("d", cfg.d).Param("reps", cfg.reps).Param("stages", strings.Join(names, ",")).Param("buildworkers", cfg.buildW)

	fmt.Fprintf(out, "scale: n=%d d=%g seed=%d reps=%d buildworkers=%d (GOMAXPROCS=%d)\n",
		cfg.n, cfg.d, cfg.seed, cfg.reps, cfg.buildW, runtime.GOMAXPROCS(0))
	ws := experiment.NewWorkspace()
	sc := experiment.DefaultScenario(cfg.n, cfg.d, cfg.seed)
	var clk obs.StageClock
	var ms0, ms1 runtime.MemStats
	progReps := obs.NewProgress("scale.reps")
	progReps.AddTotal(int64(len(names) * cfg.reps))
	for _, name := range names {
		st := stages[name]
		kernelTimes := make([]time.Duration, 0, cfg.reps)
		var heapHigh uint64 // stage heap high-water mark (HeapInuse after a kernel)
		// The same high-water as a registry gauge, so it lands in the
		// manifest counter dump and in live heartbeats, not just stdout.
		gHeap := obs.NewGauge("scale." + name + ".heap_high_water_bytes")
		for rep := 0; rep < cfg.reps; rep++ {
			t0 := time.Now()
			nw, _, ok := sc.SampleWS(ws, "scale-"+name, rep)
			if !ok {
				// SampleWS records the generator's diagnosis (attempt cap,
				// connectivity); surface it instead of a generic shrug.
				if serr := experiment.TakeSampleError(); serr != nil {
					return fmt.Errorf("stage %s: %w", name, serr)
				}
				return fmt.Errorf("stage %s rep %d: no connected topology sampled (raise -d or lower -n)", name, rep)
			}
			sample := time.Since(t0)
			var tr *obs.Tracer
			if tracer != nil && name == tracedStage && rep == 0 {
				tr = tracer
			}
			measured := obs.Enabled()
			if measured {
				runtime.ReadMemStats(&ms0)
			}
			t1 := time.Now()
			v := st(ws, nw, cfg.n/2, tr)
			kernel := time.Since(t1)
			// Heap high-water: HeapInuse right after the kernel catches the
			// stage's peak structures (digests, coverage arenas, engine
			// state) before the next sample disturbs them.
			runtime.ReadMemStats(&ms1)
			if ms1.HeapInuse > heapHigh {
				heapHigh = ms1.HeapInuse
			}
			gHeap.SetMax(int64(ms1.HeapInuse))
			progReps.Step()
			if measured {
				clk.Add(name+".sample", sample.Nanoseconds())
				clk.Add(name+".kernel", kernel.Nanoseconds())
				clk.AddAlloc(name+".kernel", int64(ms1.TotalAlloc-ms0.TotalAlloc))
			}
			kernelTimes = append(kernelTimes, kernel)
			fmt.Fprintf(out, "%-10s rep=%d  sample=%-12v kernel=%-12v heap=%-10s result=%g\n",
				name, rep, sample.Round(time.Microsecond), kernel.Round(time.Microsecond),
				fmt.Sprintf("%.1fMiB", float64(ms1.HeapInuse)/(1<<20)), v)
		}
		sort.Slice(kernelTimes, func(i, j int) bool { return kernelTimes[i] < kernelTimes[j] })
		fmt.Fprintf(out, "%-10s median kernel %v over %d reps, heap high-water %.1f MiB\n",
			name, kernelTimes[len(kernelTimes)/2].Round(time.Microsecond), len(kernelTimes), float64(heapHigh)/(1<<20))
	}
	obs.MergeStages(&clk)

	if tracer != nil {
		if err := sess.WriteTrace(cfg.trace, tracer); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace: %s (%d events, %d dropped)\n", cfg.trace, tracer.Len(), tracer.Dropped())
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(out, "memory: heap-in-use=%.1f MiB  total-alloc=%.1f MiB  sys=%.1f MiB\n",
		float64(ms.HeapInuse)/(1<<20), float64(ms.TotalAlloc)/(1<<20), float64(ms.Sys)/(1<<20))

	if cfg.run.Manifest != "" {
		// Written by the deferred sess.Close, as the run has succeeded.
		fmt.Fprintf(out, "manifest: %s\n", cfg.run.Manifest)
	}
	return nil
}
