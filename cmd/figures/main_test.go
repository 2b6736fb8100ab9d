package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clustercast/internal/obs"
	"clustercast/internal/obs/live"
	"clustercast/internal/stats"
)

// quickCfg keeps CLI tests fast.
func quickCfg() config {
	return config{fig: "delivery", format: "md", seed: 7, quick: true, maxN: 20}
}

func TestRunMarkdown(t *testing.T) {
	var out bytes.Buffer
	cfg := quickCfg()
	if err := run(cfg, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "### delivery") {
		t.Fatalf("markdown output missing figure header:\n%s", out.String())
	}
}

func TestRunCSVAndChart(t *testing.T) {
	for _, format := range []string{"csv", "chart", "json"} {
		var out bytes.Buffer
		cfg := quickCfg()
		cfg.format = format
		if err := run(cfg, &out, io.Discard); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if out.Len() == 0 {
			t.Fatalf("%s: empty output", format)
		}
		if format == "json" {
			var v map[string]interface{}
			if err := json.Unmarshal(out.Bytes(), &v); err != nil {
				t.Fatalf("json output does not parse: %v", err)
			}
			if v["ID"] != "delivery" {
				t.Fatalf("json ID = %v", v["ID"])
			}
		}
	}
}

func TestRunUnknownFigure(t *testing.T) {
	cfg := quickCfg()
	cfg.fig = "nope"
	if err := run(cfg, &bytes.Buffer{}, io.Discard); err == nil || !strings.Contains(err.Error(), "unknown figure") {
		t.Fatalf("want unknown-figure error, got %v", err)
	}
}

// TestRunUnknownFormat: a bad -format is rejected before any figure runs,
// so an -out directory is left without CSVs or a manifest.
func TestRunUnknownFormat(t *testing.T) {
	dir := t.TempDir()
	cfg := quickCfg()
	cfg.format = "yaml"
	cfg.outDir = dir
	if err := run(cfg, &bytes.Buffer{}, io.Discard); err == nil || !strings.Contains(err.Error(), "unknown format") {
		t.Fatalf("want unknown-format error, got %v", err)
	}
	csvs, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(csvs) != 0 {
		t.Errorf("rejected run wrote CSVs: %v", csvs)
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("rejected run left a manifest (stat: %v)", err)
	}
}

// TestRunRejectsNegativeWorkers: a negative worker count is an error that
// names its flag, raised before any figure runs.
func TestRunRejectsNegativeWorkers(t *testing.T) {
	for flag, set := range map[string]func(*config){
		"-workers":      func(c *config) { c.workers = -3 },
		"-buildworkers": func(c *config) { c.buildW = -2 },
	} {
		var out bytes.Buffer
		cfg := quickCfg()
		set(&cfg)
		if err := run(cfg, &out, io.Discard); err == nil || !strings.HasPrefix(err.Error(), flag+" ") {
			t.Fatalf("%s: want an error naming the flag, got %v", flag, err)
		}
		if out.Len() != 0 {
			t.Fatalf("%s: rejected run printed %q", flag, out.String())
		}
	}
}

func TestRunBadMaxN(t *testing.T) {
	cfg := quickCfg()
	cfg.maxN = 5
	if err := run(cfg, &bytes.Buffer{}, io.Discard); err == nil {
		t.Fatal("maxn below the smallest sweep size must error")
	}
}

// TestFailedRunKeepsProfiles: a run that fails after it started still
// leaves a complete CPU profile and a heap profile.
func TestFailedRunKeepsProfiles(t *testing.T) {
	dir := t.TempDir()
	cfg := quickCfg()
	cfg.fig = "delivery,nope"
	cfg.run = live.Flags{CPUProfile: filepath.Join(dir, "cpu.pprof"), MemProfile: filepath.Join(dir, "mem.pprof")}
	if err := run(cfg, &bytes.Buffer{}, io.Discard); err == nil || !strings.Contains(err.Error(), "unknown figure") {
		t.Fatalf("want unknown-figure error, got %v", err)
	}
	for _, p := range []string{cfg.run.CPUProfile, cfg.run.MemProfile} {
		data, err := os.ReadFile(p)
		if err != nil || len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
			t.Fatalf("profile %s is not a complete gzip profile (%d bytes, err %v)", p, len(data), err)
		}
	}
}

func TestRunOutDir(t *testing.T) {
	dir := t.TempDir()
	cfg := quickCfg()
	cfg.outDir = dir
	if err := run(cfg, &bytes.Buffer{}, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "delivery.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "x,") {
		t.Fatalf("CSV file content wrong: %q", string(data[:20]))
	}
}

// TestRunOutDirManifest: -out writes a run manifest beside the CSVs, with
// per-stage replicate timing, the metric snapshot, and every output file;
// and enabling the obs layer must not perturb the replicated numbers —
// the CSVs stay byte-identical across worker counts.
func TestRunOutDirManifest(t *testing.T) {
	csvs := map[int][]byte{}
	var m *obs.Manifest
	for _, workers := range []int{1, 2} {
		dir := t.TempDir()
		cfg := quickCfg()
		cfg.fig = "6a" // workspace sweep path: carries per-stage timing
		cfg.outDir = dir
		cfg.workers = workers
		if err := run(cfg, &bytes.Buffer{}, io.Discard); err != nil {
			t.Fatal(err)
		}
		if obs.Enabled() {
			t.Fatal("run left the obs layer enabled")
		}
		data, err := os.ReadFile(filepath.Join(dir, "fig6a.csv"))
		if err != nil {
			t.Fatal(err)
		}
		csvs[workers] = data
		if m, err = obs.ReadManifest(filepath.Join(dir, "manifest.json")); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(csvs[1], csvs[2]) {
		t.Fatal("CSV output differs between -workers 1 and -workers 2 with manifests enabled")
	}
	if m.Tool != "figures" || m.Seed != 7 || m.Params["fig"] != "6a" {
		t.Fatalf("manifest identity wrong: %+v", m)
	}
	stages := map[string]obs.StageStat{}
	for _, st := range m.Stages {
		stages[st.Name] = st
	}
	if st := stages["replicate"]; st.Count == 0 || st.WallNs <= 0 {
		t.Fatalf("manifest missing replicate stage stats: %v", m.Stages)
	}
	counters := map[string]int64{}
	for _, c := range m.Metrics.Counters {
		counters[c.Name] = c.Value
	}
	if counters["replicate.observations"] == 0 {
		t.Fatalf("manifest missing replicate.observations: %v", m.Metrics.Counters)
	}
	found := false
	for _, out := range m.Outputs {
		found = found || strings.HasSuffix(out, "fig6a.csv")
	}
	if !found {
		t.Fatalf("manifest outputs missing fig6a.csv: %v", m.Outputs)
	}
}

func TestRunnersCoverOrder(t *testing.T) {
	all := runners(quickCfg(), stats.StopRule{}, []int{20})
	for _, name := range figureOrder {
		if _, ok := all[name]; !ok {
			t.Fatalf("figureOrder entry %q has no runner", name)
		}
	}
	if len(all) != len(figureOrder) {
		t.Fatalf("%d runners vs %d ordered names — keep them in sync", len(all), len(figureOrder))
	}
}
