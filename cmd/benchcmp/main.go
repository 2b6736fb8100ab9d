// Command benchcmp diffs a `go test -bench` run against the checked-in
// benchmark baselines (BENCH_PR*.json) and warns when ns/op or allocs/op
// regressed beyond a threshold.
//
// Usage:
//
//	go test -run xxx -bench . -benchtime 1s . | go run ./cmd/benchcmp -baseline BENCH_PR2.json
//	go run ./cmd/benchcmp -baseline BENCH_PR2.json -threshold 0.10 bench-output.txt
//
// The baseline's "after_*" fields are the expectation: they record what the
// benchmarks measured when the PR landed. Exit status is 0 even with
// warnings unless -strict is set.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// baselineEntry is one benchmark's recorded numbers. Pointers distinguish
// "not recorded" from zero.
type baselineEntry struct {
	Name        string   `json:"name"`
	AfterNsOp   *float64 `json:"after_ns_op"`
	AfterAllocs *float64 `json:"after_allocs_op"`
}

// baselineFile mirrors the BENCH_PR*.json layout.
type baselineFile struct {
	Headline *baselineEntry  `json:"headline"`
	Micro    []baselineEntry `json:"micro"`
}

// entries flattens headline + micro into one lookup list.
func (f *baselineFile) entries() []baselineEntry {
	var out []baselineEntry
	if f.Headline != nil && f.Headline.Name != "" {
		out = append(out, *f.Headline)
	}
	out = append(out, f.Micro...)
	return out
}

// measurement is one parsed benchmark result line.
type measurement struct {
	nsOp     float64
	allocsOp float64
	hasNs    bool
	hasAlloc bool
}

// gomaxprocsSuffix strips the trailing "-N" GOMAXPROCS suffix Go appends to
// benchmark names on multi-core runs.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseBench extracts ns/op and allocs/op per benchmark from `go test
// -bench` output.
func parseBench(r io.Reader) (map[string]measurement, error) {
	out := map[string]measurement{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(fields[0], "")
		var m measurement
		// fields[1] is the iteration count; after it come (value, unit) pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				m.nsOp, m.hasNs = v, true
			case "allocs/op":
				m.allocsOp, m.hasAlloc = v, true
			}
		}
		if m.hasNs || m.hasAlloc {
			out[name] = m
		}
	}
	return out, sc.Err()
}

// compare prints one line per baseline entry found in the measurements and
// returns the number of regressions beyond the threshold.
func compare(w io.Writer, baseline []baselineEntry, got map[string]measurement, threshold float64) int {
	regressions := 0
	check := func(name, metric string, want, have float64) {
		ratio := 0.0
		if want > 0 {
			ratio = have/want - 1
		}
		status := "ok"
		if ratio > threshold {
			status = fmt.Sprintf("WARN +%.0f%% regression", ratio*100)
			regressions++
		} else if ratio < -threshold {
			status = fmt.Sprintf("improved %.0f%%", -ratio*100)
		}
		fmt.Fprintf(w, "%-60s %-10s baseline %14.1f  now %14.1f  %s\n", name, metric, want, have, status)
	}
	for _, e := range baseline {
		m, ok := got[e.Name]
		if !ok {
			fmt.Fprintf(w, "%-60s (not measured in this run)\n", e.Name)
			continue
		}
		if e.AfterNsOp != nil && m.hasNs {
			check(e.Name, "ns/op", *e.AfterNsOp, m.nsOp)
		}
		if e.AfterAllocs != nil && m.hasAlloc {
			// Allocation counts are deterministic; any increase beyond the
			// threshold (rounding headroom for tiny counts) is a regression.
			check(e.Name, "allocs/op", *e.AfterAllocs, m.allocsOp)
		}
	}
	return regressions
}

// scaleName matches the scaling benchmarks' "Benchmark<Family>/n=<N>/<stage>"
// naming, capturing family, network size, and stage. The families are the
// PR1–PR3 Scale* kernels, the PR7 event-calendar engines
// (BenchmarkDESMAC/DESWire/DESTimed), the PR8 sharded construction
// stages (BenchmarkShardedCoverage/ParallelCluster/ParallelTopology), and
// the PR10 multi-source traffic curve (BenchmarkWorkloadThroughput) — all
// share the /n=<N>/<variant> shape.
var scaleName = regexp.MustCompile(`^Benchmark(Scale\w+|DES\w*|ShardedCoverage\w*|ParallelCluster\w*|ParallelTopology\w*|Workload\w*)/n=(\d+)/(.+)$`)

// scaleCurves prints, for every Scale* benchmark family and stage seen in
// the baseline or the current run, the ns/op scaling curve by network size
// n — baseline vs now, with the speedup factor per point. This is the view
// that makes size-dependent regressions visible: a kernel can hold its
// n=1000 number while quietly going superlinear at n=50000.
func scaleCurves(w io.Writer, baseline []baselineEntry, got map[string]measurement) {
	type point struct {
		base, now float64
		hasBase   bool
		hasNow    bool
	}
	curves := map[string]map[int]*point{} // "ScaleKernels/static25" -> n -> point
	at := func(curve string, n int) *point {
		if curves[curve] == nil {
			curves[curve] = map[int]*point{}
		}
		if curves[curve][n] == nil {
			curves[curve][n] = &point{}
		}
		return curves[curve][n]
	}
	for _, e := range baseline {
		if e.AfterNsOp == nil {
			continue
		}
		if m := scaleName.FindStringSubmatch(e.Name); m != nil {
			n, _ := strconv.Atoi(m[2])
			p := at(m[1]+"/"+m[3], n)
			p.base, p.hasBase = *e.AfterNsOp, true
		}
	}
	for name, meas := range got {
		if !meas.hasNs {
			continue
		}
		if m := scaleName.FindStringSubmatch(name); m != nil {
			n, _ := strconv.Atoi(m[2])
			p := at(m[1]+"/"+m[3], n)
			p.now, p.hasNow = meas.nsOp, true
		}
	}
	if len(curves) == 0 {
		return
	}
	names := make([]string, 0, len(curves))
	for name := range curves {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "\nscaling curves (ns/op by n):\n")
	for _, name := range names {
		fmt.Fprintf(w, "%s:\n", name)
		ns := make([]int, 0, len(curves[name]))
		for n := range curves[name] {
			ns = append(ns, n)
		}
		sort.Ints(ns)
		for _, n := range ns {
			p := curves[name][n]
			switch {
			case p.hasBase && p.hasNow:
				fmt.Fprintf(w, "  n=%-8d baseline %14.0f  now %14.0f  (%.2fx)\n",
					n, p.base, p.now, p.base/p.now)
			case p.hasNow:
				fmt.Fprintf(w, "  n=%-8d baseline %14s  now %14.0f\n", n, "-", p.now)
			default:
				fmt.Fprintf(w, "  n=%-8d baseline %14.0f  now %14s\n", n, p.base, "(not measured)")
			}
		}
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchcmp", flag.ContinueOnError)
	baselinePath := fs.String("baseline", "BENCH_PR2.json", "baseline JSON file to compare against")
	threshold := fs.Float64("threshold", 0.10, "relative regression considered noteworthy (0.10 = 10%)")
	strict := fs.Bool("strict", false, "exit non-zero when a regression exceeds the threshold")
	if err := fs.Parse(args); err != nil {
		return err
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		return err
	}
	var bf baselineFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("parse %s: %w", *baselinePath, err)
	}

	in := stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	got, err := parseBench(in)
	if err != nil {
		return err
	}
	if len(got) == 0 {
		return fmt.Errorf("no benchmark result lines found in input")
	}

	n := compare(stdout, bf.entries(), got, *threshold)
	scaleCurves(stdout, bf.entries(), got)
	if n > 0 {
		fmt.Fprintf(stdout, "\n%d benchmark(s) regressed more than %.0f%% vs %s\n", n, *threshold*100, *baselinePath)
		if *strict {
			return fmt.Errorf("%d regression(s)", n)
		}
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
		os.Exit(1)
	}
}
