package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the files under testdata/stdout")

// stdoutGoldens pins the two outputs that print backbone node sets: the
// summary line (static backbone sizes and the cut-vertex count) and the
// DOT rendering with the 2.5-hop static backbone filled in.
var stdoutGoldens = []struct {
	file string // under testdata/stdout
	cfg  config
}{
	{"n60_d5_seed1_summary.txt", // -n 60 -d 5 -seed 1 -format summary
		config{n: 60, d: 5, seed: 1, side: 100, format: "summary", placement: "uniform"}},
	{"n60_d5_seed1_dot.txt", // -n 60 -d 5 -seed 1 -format dot
		config{n: 60, d: 5, seed: 1, side: 100, format: "dot", placement: "uniform"}},
}

// TestStdoutGolden pins these runs across commits: a change to a
// backbone's membership, the cut-vertex count or the DOT layout fails
// here unless the files are regenerated on purpose with
// `go test ./cmd/topogen -run StdoutGolden -update`.
func TestStdoutGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The summary prints floats whose last digits may move where
		// multiply-adds fuse.
		t.Skip("golden stdout files are recorded on amd64")
	}
	for _, tc := range stdoutGoldens {
		t.Run(tc.file, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tc.cfg, &out); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "stdout", tc.file)
			if *update {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden (regenerate with -update): %v", err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("stdout differs from %s (regenerate with -update if the change is intended):\n got:\n%s\nwant:\n%s",
					path, out.Bytes(), want)
			}
		})
	}
}
