// Command pipebench is the benchmark of the whole pipeline: topology →
// lowest-ID clustering → coverage digest → gateway selection or
// per-broadcast pruning → broadcast engine. It runs one workload for a
// fixed time, checks every output, and prints its metrics; the last line of
// standard output is one JSON object.
//
//	bash pipebench/run.sh --workload scale-100k --seed 2003 --seconds 15 --trace 0
//
// Workloads (see BENCHMARK.json for why each exists): paper-figures,
// scale-100k, traffic-5k and radio-10k. One op is one pass over the
// workload's inputs, which derive only from --seed, so every op of a run
// gives identical results.
//
// With --trace 0 the run sets up several times (fresh workspaces plus one
// warm-up op, the time before the first timed op) and then repeats the op,
// closed-loop with one client, until --seconds have passed. It reports the
// median wall time of an op (run_s) and of a set-up (setup_s), both without
// the output checks. After the timed phase it runs one more op, untimed,
// with a full garbage collection after every layer call, and reports the
// highest live heap those collections found (peak_heap_mib, see
// measureHeap).
//
// With --trace 1 it alternates untraced and traced ops and reports the
// per-layer metrics listed in metrics.go: self time per layer, the
// scalar-vs-calendar engine twins, the 1-vs-2-worker twins of every sharded
// call, and the layer ratios.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is the parsed command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// tiny shrinks every workload to a size the self-test runs in seconds.
	// Only the self-test sets it.
	tiny bool
	// workers, when positive, overrides the workload's worker setting. Only
	// the self-test sets it.
	workers int
}

// runner is one benchmark workload. op runs one pass over its inputs,
// calling into the layers through tr, and returns the digest of its result
// values plus every failed check and skipped replicate.
type runner interface {
	op(tr *tracer) outcome
}

// workloads maps each name to its constructor. A constructor only
// allocates; the first op fills the workspaces.
var workloads = map[string]func(cfg config) runner{
	"paper-figures": newFigures,
	"scale-100k":    newScale,
	"traffic-5k":    newTraffic,
	"radio-10k":     newRadio,
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(2)
	}
	if runtime.NumCPU() >= 2 {
		runtime.GOMAXPROCS(2)
	} else {
		runtime.GOMAXPROCS(1)
	}
	line, err := json.Marshal(run(cfg, os.Stdout, os.Stderr))
	if err != nil {
		fmt.Fprintf(os.Stderr, "pipebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	var cfg config
	fs := flag.NewFlagSet("pipebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	fs.Uint64Var(&cfg.seed, "seed", 2003, "workload seed; every input derives from it")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "how long the timed phase runs")
	var trace int
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics; 0: untraced run reporting end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		err := fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(names, ", "))
		fmt.Fprintf(stderr, "pipebench: %v\n", err)
		return cfg, err
	}
	if trace != 0 && trace != 1 {
		err := fmt.Errorf("-trace must be 0 or 1, got %d", trace)
		fmt.Fprintf(stderr, "pipebench: %v\n", err)
		return cfg, err
	}
	cfg.trace = trace == 1
	return cfg, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts ops and failures and keeps the reference digest every op
// of the run must reproduce.
type tally struct {
	workload  string
	seed      uint64
	tiny      bool
	ref       string
	attempted int
	failed    int
	stderr    io.Writer
}

// note records one op: it fails when any check failed or when its digest
// differs from the run's first op or from the digest recorded for the seed.
func (t *tally) note(o outcome) {
	t.attempted++
	d := o.digest()
	if t.ref == "" {
		t.ref = d
		if want, ok := recordedDigest(t.workload, t.seed, t.tiny); ok && want != d {
			o.fail("digest %s, recorded for seed %d: %s", d, t.seed, want)
		}
	} else if d != t.ref {
		o.fail("digest %s differs from the run's first op (%s)", d, t.ref)
	}
	if len(o.fails) > 0 {
		t.failed++
		for i, f := range o.fails {
			if i == 3 {
				fmt.Fprintf(t.stderr, "pipebench: ... %d more failures in this op\n", len(o.fails)-i)
				break
			}
			fmt.Fprintf(t.stderr, "pipebench: op %d: %s\n", t.attempted, f)
		}
	}
}

// setupReps is how many times an untraced run sets up; setup_s is the
// median. minOps is the fewest timed ops a run makes, however long they take.
const (
	setupReps = 3
	minOps    = 3
)

func run(cfg config, stdout, stderr io.Writer) result {
	t := &tally{workload: cfg.workload, seed: cfg.seed, tiny: cfg.tiny, stderr: stderr}
	var m map[string]metric
	if cfg.trace {
		m = runTraced(cfg, t)
	} else {
		m = runUntraced(cfg, t)
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "workload %s seed %d trace %v: %d ops, %d failed (failed_frac %g), digest %s\n",
		cfg.workload, cfg.seed, cfg.trace, t.attempted, t.failed, float64(t.failed)/float64(max(t.attempted, 1)), t.ref)
	for _, name := range names {
		fmt.Fprintf(stdout, "  %-36s %14.6g %s\n", name, m[name].Value, m[name].Unit)
	}
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
}

// runUntraced measures the end-to-end metrics.
func runUntraced(cfg config, t *tally) map[string]metric {
	var wl runner
	var setups []float64
	for i := 0; i < setupReps; i++ {
		// Drop the previous set-up's workspaces, and the sync.Pool entries
		// the layers keep, so each set-up starts cold.
		wl = nil
		runtime.GC()
		runtime.GC()
		tr := newTracer(false)
		start := time.Now()
		wl = workloads[cfg.workload](cfg)
		o := runOp(tr, wl)
		setups = append(setups, (time.Since(start) - tr.asideD).Seconds())
		t.note(o)
	}

	tr := newTracer(false)
	var ops []float64
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for len(ops) < minOps || time.Now().Before(deadline) {
		var o outcome
		ops = append(ops, tr.op(func() { o = wl.op(tr) }).Seconds())
		t.note(o)
	}
	o, peak := measureHeap(wl)
	t.note(o)
	return map[string]metric{
		"run_s":         {median(ops), "s"},
		"setup_s":       {median(setups), "s"},
		"peak_heap_mib": {float64(peak) / (1 << 20), "MiB"},
	}
}

// runOp runs one op of wl outside any measurement.
func runOp(tr *tracer, wl runner) (o outcome) {
	tr.op(func() { o = wl.op(tr) })
	return o
}

// runTraced measures the per-layer metrics: it alternates an untraced
// reference op with a traced op on the same inputs and configuration.
func runTraced(cfg config, t *tally) map[string]metric {
	wl := workloads[cfg.workload](cfg)
	off, on := newTracer(false), newTracer(true)
	t.note(runOp(off, wl)) // warm-up

	// The paper-figures traced op runs its replicates on one worker, so
	// that span self times add up to wall time; the reference op does the
	// same, and a second reference op at the workload's replicate workers
	// gives the replicate-worker speed-up.
	fig, _ := wl.(*figures)
	workers := 0
	if fig != nil {
		workers, fig.workers = fig.workers, 1
	}
	var refs, refsW, traced []float64
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for len(traced) < 2 || time.Now().Before(deadline) {
		if fig != nil {
			var o outcome
			d := off.op(func() { o = fig.production(off, workers) })
			refsW = append(refsW, ms(d))
			t.note(o)
		}
		var o outcome
		d := off.op(func() { o = wl.op(off) })
		refs = append(refs, ms(d))
		t.note(o)
		d = on.op(func() { o = wl.op(on) })
		traced = append(traced, ms(d))
		t.note(o)
	}
	s := on.sums
	if fig != nil {
		s["experiment.replicate.w1"] = sum(refs)
		s["experiment.replicate.w2"] = sum(refsW)
	}
	return layerMetrics(s, len(traced), mean(traced), mean(refs))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }
