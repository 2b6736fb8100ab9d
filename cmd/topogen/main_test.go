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
	snapshot := filepath.Join(t.TempDir(), "net.json")
	for _, placement := range []string{"uniform", "grid", "clustered"} {
		for _, d := range []float64{math.NaN(), 0, -4} {
			cfg = baseCfg()
			cfg.d = d
			cfg.placement = placement
			if err := run(cfg, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "-d") {
				t.Fatalf("-d %g with %s placement: want a degree error, got %v", d, placement, err)
			}
		}
		for _, n := range []int{0, -5} {
			cfg = baseCfg()
			cfg.n = n
			cfg.placement = placement
			var out bytes.Buffer
			if err := run(cfg, &out); err == nil || !strings.Contains(err.Error(), "-n") || out.Len() != 0 {
				t.Fatalf("-n %d with %s placement: want a node-count error and no output, got %v, %q", n, placement, err, out.String())
			}
		}
		for _, side := range []float64{-5, 0, math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg = baseCfg()
			cfg.side = side
			cfg.placement = placement
			cfg.save = snapshot
			var out bytes.Buffer
			if err := run(cfg, &out); err == nil || !strings.Contains(err.Error(), "-side") || out.Len() != 0 {
				t.Fatalf("-side %g with %s placement: want a side error and no output, got %v, %q", side, placement, err, out.String())
			}
			if _, err := os.Stat(cfg.save); !os.IsNotExist(err) {
				t.Fatalf("-side %g with %s placement: snapshot written (%v)", side, placement, err)
			}
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
