package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func tinyConfig(name string) config {
	return config{workload: name, seed: devSeed, tiny: true}
}

// TestWorkloadsMatchBenchmarkFile checks that BENCHMARK.json names exactly
// the workloads the benchmark runs.
func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	var listed []string
	for _, w := range readBenchmarkFile(t).Workloads {
		listed = append(listed, w.Name)
	}
	var have []string
	for name := range workloads {
		have = append(have, name)
	}
	sort.Strings(listed)
	sort.Strings(have)
	if len(listed) != len(have) {
		t.Fatalf("BENCHMARK.json lists %v, the benchmark runs %v", listed, have)
	}
	for i := range listed {
		if listed[i] != have[i] {
			t.Fatalf("BENCHMARK.json lists %v, the benchmark runs %v", listed, have)
		}
	}
}

// TestPrintedMetricsMatchBenchmarkFile runs every workload at tiny size,
// untraced and traced, and checks that the printed metrics are exactly
// the ones BENCHMARK.json declares, with its units, and that every check
// passed.
func TestPrintedMetricsMatchBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	units := func(defs []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) map[string]string {
		m := make(map[string]string, len(defs))
		for _, d := range defs {
			m[d.Name] = d.Unit
		}
		return m
	}
	want := map[bool]map[string]string{false: units(b.EndToEnd), true: units(b.PerLayer)}
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := tinyConfig(name)
			cfg.trace = traced
			res := run(cfg, io.Discard, io.Discard)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want[traced]) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", name, traced, len(res.Metrics), len(want[traced]))
			}
			for m, u := range want[traced] {
				got, ok := res.Metrics[m]
				if !ok || got.Unit != u {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", name, traced, m, got, u)
				}
				if !traced && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m, got.Value)
				}
			}
		}
	}
}

// tinyDigest runs one tiny op of a fresh workload instance and returns its
// result digest, failing the test on any failed check. workers 0 keeps the
// workload's own worker setting.
func tinyDigest(t *testing.T, name string, workers int, traced bool) string {
	t.Helper()
	cfg := tinyConfig(name)
	cfg.workers = workers
	o := runOp(newTracer(traced), workloads[name](cfg))
	for _, f := range o.fails {
		t.Errorf("%s workers=%d traced=%v: %s", name, workers, traced, f)
	}
	return o.digest()
}

// TestDigestsStable checks that two runs, a traced and an untraced run, and
// runs at one and at two workers all give identical results.
func TestDigestsStable(t *testing.T) {
	for name := range workloads {
		first := tinyDigest(t, name, 0, false)
		for _, c := range []struct {
			what    string
			workers int
			traced  bool
		}{
			{"second run", 0, false},
			{"traced run", 0, true},
			{"one worker", 1, false},
			{"two workers", 2, false},
		} {
			if got := tinyDigest(t, name, c.workers, c.traced); got != first {
				t.Errorf("%s: %s digest %s, first run %s", name, c.what, got, first)
			}
		}
	}
}
