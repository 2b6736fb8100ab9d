package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden figure CSVs under testdata/golden")

// goldenDir holds every figure's CSV from
// `figures -fig all -quick -maxn 40 -seed 2003 -format csv -out <dir>`.
const goldenDir = "testdata/golden"

// TestFiguresMatchGolden pins every figure's bytes across commits: a
// change that alters any figure CSV — a different sample, fold order or
// stopping decision — fails here unless the golden files are regenerated
// on purpose with -update. The bytes do not depend on -workers.
func TestFiguresMatchGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other targets may fuse multiply-adds, which moves the last bits
		// of the means and CIs the goldens print.
		t.Skip("golden figure CSVs are recorded on amd64")
	}
	dir := t.TempDir()
	cfg := config{fig: "all", format: "csv", seed: 2003, quick: true, maxN: 40, outDir: dir, workers: 2}
	if err := run(cfg, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	got, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, path := range got {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(goldenDir, filepath.Base(path)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, err := filepath.Glob(filepath.Join(goldenDir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(figureOrder) || len(want) != len(figureOrder) {
		t.Fatalf("%d figure CSVs written, %d golden, want %d each", len(got), len(want), len(figureOrder))
	}
	for _, path := range want {
		name := filepath.Base(path)
		golden, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("%s: not written: %v", name, err)
			continue
		}
		if !bytes.Equal(data, golden) {
			t.Errorf("%s differs from %s (regenerate with -update if the change is intended):\n got:\n%s\nwant:\n%s",
				name, path, data, golden)
		}
	}
}
