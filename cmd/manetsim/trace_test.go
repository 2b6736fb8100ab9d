package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"clustercast/internal/core"
	"clustercast/internal/obs"
	"clustercast/internal/obs/live"
)

var update = flag.Bool("update", false, "rewrite golden trace files")

const goldenTrace = "testdata/trace_dynamic25_n40_d10_seed3.jsonl"

// traceRun executes one traced manetsim run and returns the trace bytes.
func traceRun(t *testing.T, maxprocs int) []byte {
	t.Helper()
	if maxprocs > 0 {
		old := runtime.GOMAXPROCS(maxprocs)
		defer runtime.GOMAXPROCS(old)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	cfg := config{n: 40, d: 10, seed: 3, source: 0, protocols: "dynamic-2.5", trace: path}
	if err := run(cfg, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestTraceGolden pins the JSONL wire format byte for byte: field order,
// event order, and naming must not drift, or recorded traces stop being
// comparable across versions. Regenerate with `go test -run TraceGolden
// -update` only when the format change is intentional.
func TestTraceGolden(t *testing.T) {
	got := traceRun(t, 0)
	if *update {
		if err := os.WriteFile(goldenTrace, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenTrace)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace diverged from golden %s (%d vs %d bytes); run with -update if intentional",
			goldenTrace, len(got), len(want))
	}
}

// TestTraceStableAcrossProcs: a single broadcast is sequential, so the
// recorded event stream must be byte-identical whatever the scheduler's
// processor count is.
func TestTraceStableAcrossProcs(t *testing.T) {
	one := traceRun(t, 1)
	four := traceRun(t, 4)
	if !bytes.Equal(one, four) {
		t.Fatal("trace differs between GOMAXPROCS=1 and GOMAXPROCS=4")
	}
}

// TestTraceRequiresOneProtocol: a trace file holds exactly one broadcast.
func TestTraceRequiresOneProtocol(t *testing.T) {
	for _, protocols := range []string{"all", "flooding,dynamic-2.5"} {
		cfg := config{n: 20, d: 8, seed: 1, source: 0, protocols: protocols, trace: filepath.Join(t.TempDir(), "t.jsonl")}
		if err := run(cfg, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "exactly one protocol") {
			t.Fatalf("protocols=%q: want exactly-one-protocol error, got %v", protocols, err)
		}
	}
}

// TestTracePassiveUnsupported: the multi-round passive series cannot be
// represented as a single-broadcast trace and must say so.
func TestTracePassiveUnsupported(t *testing.T) {
	cfg := config{n: 20, d: 8, seed: 1, source: 0, protocols: "passive", trace: filepath.Join(t.TempDir(), "t.jsonl")}
	if err := run(cfg, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "not supported") {
		t.Fatalf("want unsupported error, got %v", err)
	}
}

// TestManifestRoundTrip: -manifest records the run's identity and outputs,
// and the whole-run metric folds land in it.
func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	mpath := filepath.Join(dir, "manifest.json")
	tpath := filepath.Join(dir, "trace.jsonl")
	cfg := config{n: 40, d: 10, seed: 3, source: 0, protocols: "dynamic-2.5", trace: tpath, run: live.Flags{Manifest: mpath}}
	if err := run(cfg, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if obs.Enabled() {
		t.Fatal("run left the obs layer enabled")
	}
	m, err := obs.ReadManifest(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if m.Tool != "manetsim" || m.Seed != 3 || m.Params["n"] != "40" {
		t.Fatalf("manifest identity wrong: %+v", m)
	}
	if len(m.Outputs) != 2 {
		t.Fatalf("outputs = %v, want trace + manifest", m.Outputs)
	}
	counters := map[string]int64{}
	for _, c := range m.Metrics.Counters {
		counters[c.Name] = c.Value
	}
	if counters["broadcast.runs"] != 1 {
		t.Fatalf("broadcast.runs = %d in manifest", counters["broadcast.runs"])
	}
	if counters["broadcast.deliveries"] != 39 {
		t.Fatalf("broadcast.deliveries = %d, want 39 (n-1 on a connected net)", counters["broadcast.deliveries"])
	}

	// The trace and the manifest describe the same run: deliver events in
	// the one must equal the deliveries counter in the other.
	f, err := os.Open(tpath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	delivers := 0
	prunes := int64(0)
	for _, ev := range events {
		switch ev.Kind {
		case obs.EvDeliver:
			delivers++
		case obs.EvCoveragePrune:
			prunes++
		}
	}
	if int64(delivers) != counters["broadcast.deliveries"] {
		t.Fatalf("trace delivers %d != manifest deliveries %d", delivers, counters["broadcast.deliveries"])
	}
	total := counters["dynamicb.prune.upstream_sender"] +
		counters["dynamicb.prune.piggybacked_set"] +
		counters["dynamicb.prune.second_hop_adjacent"]
	if prunes != total {
		t.Fatalf("trace prunes %d != manifest per-rule total %d", prunes, total)
	}

	// A -load run with a random source records the network and source it
	// simulated, not the -n and -source flag values.
	nw, err := core.NewRandomNetwork(core.NetworkSpec{N: 37, AvgDegree: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	npath := filepath.Join(dir, "net.json")
	nf, err := os.Create(npath)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Topology.Save(nf); err != nil {
		t.Fatal(err)
	}
	nf.Close()
	var out bytes.Buffer
	cfg = config{n: 100, d: 6, seed: 1, source: -1, protocols: "flooding", load: npath,
		run: live.Flags{Manifest: mpath}}
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	if m, err = obs.ReadManifest(mpath); err != nil {
		t.Fatal(err)
	}
	var src int
	for _, line := range strings.Split(out.String(), "\n") {
		if _, err := fmt.Sscanf(line, "broadcast source: %d", &src); err == nil {
			break
		}
	}
	if m.Params["n"] != "37" || m.Params["source"] != strconv.Itoa(src) || m.Params["load"] != npath {
		t.Fatalf("-load manifest params n=%q source=%q load=%q, want 37, %d (the drawn source), %s",
			m.Params["n"], m.Params["source"], m.Params["load"], src, npath)
	}
}

// TestFailedRunKeepsProfiles: a run that fails after it started still
// leaves a complete CPU profile and a heap profile.
func TestFailedRunKeepsProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	cfg := config{n: 20, d: 8, seed: 1, source: 99, protocols: "flooding",
		run: live.Flags{CPUProfile: cpu, MemProfile: mem}}
	if err := run(cfg, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("want out-of-range error, got %v", err)
	}
	for _, p := range []string{cpu, mem} {
		data, err := os.ReadFile(p)
		if err != nil || len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
			t.Fatalf("profile %s is not a complete gzip profile (%d bytes, err %v)", p, len(data), err)
		}
	}
}
