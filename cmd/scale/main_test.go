package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"clustercast/internal/obs"
	"clustercast/internal/obs/live"
)

func TestRunAllStages(t *testing.T) {
	var out bytes.Buffer
	cfg := config{n: 300, d: 12, seed: 11, reps: 2, stages: "static25,mocds,dynamic25"}
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"static25", "mocds", "dynamic25", "median kernel", "memory:"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

// resultLines returns the stage, rep and result= fields of every replicate
// line of a run's output, the part of it that must not depend on
// -buildworkers.
func resultLines(out string) []string {
	var lines []string
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) > 0 && strings.HasPrefix(f[len(f)-1], "result=") {
			lines = append(lines, f[0]+" "+f[1]+" "+f[len(f)-1])
		}
	}
	return lines
}

// TestRunBuildWorkersResultsIdentical: every stage prints the same result=
// values whether its construction layers run as one strip or as many, at
// n=600 and in the n=2000, d=12 shape of `scale -n 2000 -d 12 -reps 1`.
func TestRunBuildWorkersResultsIdentical(t *testing.T) {
	// The strip count is clamped to GOMAXPROCS; lift it so that -buildworkers
	// 8 runs eight strips on any machine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for _, base := range []config{
		{n: 600, d: 12, seed: 5, reps: 2},
		{n: 2000, d: 12, seed: 2003, reps: 1},
	} {
		var want []string
		for _, bw := range []int{0, 1, 2, 8} {
			var out bytes.Buffer
			cfg := base
			cfg.buildW, cfg.stages = bw, "static25,mocds,dynamic25"
			if err := run(cfg, &out); err != nil {
				t.Fatal(err)
			}
			got := resultLines(out.String())
			if len(got) != 3*cfg.reps {
				t.Fatalf("n=%d -buildworkers %d: %d result lines, want %d:\n%s", cfg.n, bw, len(got), 3*cfg.reps, out.String())
			}
			if want == nil {
				want = got
			} else if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("n=%d -buildworkers %d results differ from -buildworkers 0:\n%s\nwant\n%s",
					cfg.n, bw, strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		}
	}
}

// TestRunUnknownStage: every -stages entry must name a stage, the empty
// entries of a stray comma included.
func TestRunUnknownStage(t *testing.T) {
	for _, stages := range []string{"warp", "static25,", ",mocds", ""} {
		cfg := config{n: 100, d: 12, seed: 1, reps: 1, stages: stages}
		if err := run(cfg, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "unknown stage") {
			t.Fatalf("-stages %q: want unknown-stage error, got %v", stages, err)
		}
	}
}

func TestRunRejectsNegativeBuildWorkers(t *testing.T) {
	var out bytes.Buffer
	cfg := config{n: 100, d: 12, seed: 1, reps: 1, buildW: -2, stages: "static25"}
	if err := run(cfg, &out); err == nil || !strings.HasPrefix(err.Error(), "-buildworkers ") {
		t.Fatalf("want a -buildworkers error, got %v", err)
	}
	if out.Len() != 0 {
		t.Fatalf("rejected run printed %q", out.String())
	}
}

// TestRunRejectsNoReps: a run without replicates has no median to report,
// so it fails before the header or any stage, with nothing on stdout.
func TestRunRejectsNoReps(t *testing.T) {
	for _, reps := range []int{0, -1} {
		var out bytes.Buffer
		cfg := config{n: 100, d: 12, seed: 1, reps: reps, stages: "static25"}
		if err := run(cfg, &out); err == nil || !strings.Contains(err.Error(), "-reps") {
			t.Fatalf("-reps %d: want a -reps error, got %v", reps, err)
		}
		if out.Len() != 0 {
			t.Fatalf("-reps %d: rejected run printed %q", reps, out.String())
		}
	}
}

// TestRunSampleErrorPropagates: an unsatisfiable topology spec must surface
// the generator's diagnosis (the attempt cap), not a generic shrug.
func TestRunSampleErrorPropagates(t *testing.T) {
	cfg := config{n: 400, d: 2, seed: 1, reps: 1, stages: "static25"}
	err := run(cfg, &bytes.Buffer{})
	if err == nil {
		t.Fatal("sparse spec unexpectedly sampled a connected topology")
	}
	if !strings.Contains(err.Error(), "attempts") {
		t.Fatalf("error lost the generator diagnosis: %v", err)
	}
	if !strings.Contains(err.Error(), "stage static25") {
		t.Fatalf("error lost the stage context: %v", err)
	}
}

// TestFailedRunKeepsProfiles: a run that fails after it started still
// leaves a complete CPU profile and a heap profile.
func TestFailedRunKeepsProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	cfg := config{n: 400, d: 2, seed: 1, reps: 1, stages: "static25",
		run: live.Flags{CPUProfile: cpu, MemProfile: mem}}
	if err := run(cfg, &bytes.Buffer{}); err == nil {
		t.Fatal("sparse spec unexpectedly sampled a connected topology")
	}
	for _, p := range []string{cpu, mem} {
		data, err := os.ReadFile(p)
		if err != nil || len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
			t.Fatalf("profile %s is not a complete gzip profile (%d bytes, err %v)", p, len(data), err)
		}
	}
}

func TestRunTraceNeedsDynamicStage(t *testing.T) {
	cfg := config{n: 100, d: 12, seed: 1, reps: 1, stages: "static25",
		trace: filepath.Join(t.TempDir(), "t.jsonl")}
	if err := run(cfg, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "dynamic25") {
		t.Fatalf("want dynamic25-required error, got %v", err)
	}
}

// TestRunManifestAndTrace: the manifest records per-stage wall/alloc stats
// and the trace reconciles with the printed forward-node count.
func TestRunManifestAndTrace(t *testing.T) {
	dir := t.TempDir()
	mpath := filepath.Join(dir, "manifest.json")
	tpath := filepath.Join(dir, "trace.jsonl")
	var out bytes.Buffer
	cfg := config{n: 300, d: 12, seed: 11, reps: 2, buildW: 2, stages: "dynamic25",
		trace: tpath, run: live.Flags{Manifest: mpath}}
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	if obs.Enabled() {
		t.Fatal("run left the obs layer enabled")
	}

	m, err := obs.ReadManifest(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if m.Tool != "scale" || m.Seed != 11 || m.Workers != 0 || m.Params["buildworkers"] != "2" || m.Params["stages"] != "dynamic25" {
		t.Fatalf("manifest identity wrong: %+v", m)
	}
	stages := map[string]obs.StageStat{}
	for _, st := range m.Stages {
		stages[st.Name] = st
	}
	for _, name := range []string{"dynamic25.sample", "dynamic25.kernel"} {
		st, ok := stages[name]
		if !ok || st.Count != 2 || st.WallNs <= 0 {
			t.Fatalf("stage %s missing or implausible: %+v (have %v)", name, st, m.Stages)
		}
	}
	if stages["dynamic25.kernel"].AllocBytes <= 0 {
		t.Fatalf("kernel stage has no alloc accounting: %+v", stages["dynamic25.kernel"])
	}

	f, err := os.Open(tpath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("trace is empty")
	}
	senders := map[int]bool{}
	for _, ev := range events {
		if ev.Kind == obs.EvSend {
			senders[ev.Node] = true
		}
	}
	// rep 0 prints "result=<forward count>"; the trace's distinct senders
	// must match it.
	var repLine string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "rep=0") {
			repLine = line
			break
		}
	}
	want := strings.TrimSpace(repLine[strings.Index(repLine, "result=")+len("result="):])
	if got := len(senders); want == "" || want != strconv.Itoa(got) {
		t.Fatalf("trace senders %d != printed result %q", got, want)
	}
}
