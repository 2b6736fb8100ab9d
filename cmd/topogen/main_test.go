package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clustercast/internal/topology"
)

func baseCfg() config {
	return config{n: 30, d: 8, seed: 3, side: 100, format: "summary", placement: "uniform"}
}

func TestRunSummary(t *testing.T) {
	var out bytes.Buffer
	if err := run(baseCfg(), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "n=30") {
		t.Fatalf("summary missing node count:\n%s", out.String())
	}
}

func TestRunCSV(t *testing.T) {
	var out bytes.Buffer
	cfg := baseCfg()
	cfg.format = "csv"
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.HasPrefix(s, "id,x,y\n") || !strings.Contains(s, "u,v\n") {
		t.Fatalf("CSV sections missing:\n%s", s[:60])
	}
}

func TestRunDOT(t *testing.T) {
	var out bytes.Buffer
	cfg := baseCfg()
	cfg.format = "dot"
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "graph manet {") {
		t.Fatalf("DOT output wrong:\n%s", out.String()[:40])
	}
	if !strings.Contains(out.String(), "fillcolor=black") {
		t.Fatal("backbone highlighting missing")
	}
}

func TestRunPlacements(t *testing.T) {
	for _, placement := range []string{"grid", "clustered"} {
		var out bytes.Buffer
		cfg := baseCfg()
		cfg.placement = placement
		if err := run(cfg, &out); err != nil {
			t.Fatalf("%s: %v", placement, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	cfg := baseCfg()
	cfg.placement = "orbital"
	if err := run(cfg, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "unknown placement") {
		t.Fatalf("want placement error, got %v", err)
	}
	cfg = baseCfg()
	cfg.format = "png"
	if err := run(cfg, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "unknown format") {
		t.Fatalf("want format error, got %v", err)
	}
	for _, placement := range []string{"uniform", "grid", "clustered"} {
		cfg = baseCfg()
		cfg.d = math.NaN()
		cfg.placement = placement
		if err := run(cfg, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "-d") {
			t.Fatalf("-d NaN with %s placement: want a degree error, got %v", placement, err)
		}
	}
}

func TestRunSaveRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "net.json")
	cfg := baseCfg()
	cfg.save = path
	if err := run(cfg, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	nw, err := topology.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	if nw.N() != 30 {
		t.Fatalf("snapshot round trip lost nodes: %d", nw.N())
	}
}
