package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// stdoutGoldens pins the whole stdout of six manetsim command lines: the
// protocol table at the paper's dense point with and without -wire, a
// lossy fault run with its repair report, a churned fault run whose
// repair report re-elects around crashed clusterheads, a traffic load
// report, and a sparser network with a drawn source.
var stdoutGoldens = []struct {
	file string // under testdata/stdout
	cfg  config
}{
	{"n100_d18_seed3_source0.txt", // -n 100 -d 18 -seed 3 -source 0
		config{n: 100, d: 18, seed: 3, source: 0, protocols: "all"}},
	{"n100_d18_seed3_source0_wire.txt", // -n 100 -d 18 -seed 3 -source 0 -wire
		config{n: 100, d: 18, seed: 3, source: 0, protocols: "all", wire: true}},
	{"n80_d10_seed7_source0_loss.txt", // -n 80 -d 10 -seed 7 -source 0 -faults loss=0.3
		config{n: 80, d: 10, seed: 7, source: 0, protocols: "all", faults: "loss=0.3"}},
	{"n80_d10_seed7_source0_churn.txt", // -n 80 -d 10 -seed 7 -source 0 -faults mtbf=100,mttr=40,burst=0.1:4,warmup=500
		config{n: 80, d: 10, seed: 7, source: 0, protocols: "all", faults: "mtbf=100,mttr=40,burst=0.1:4,warmup=500"}},
	{"n80_d10_seed7_traffic.txt", // -n 80 -d 10 -seed 7 -traffic proc=poisson,rate=0.3,flows=24
		config{n: 80, d: 10, seed: 7, source: -1, protocols: "all", traffic: "proc=poisson,rate=0.3,flows=24"}},
	{"n200_d8_seed11.txt", // -n 200 -d 8 -seed 11
		config{n: 200, d: 8, seed: 11, source: -1, protocols: "all"}},
}

// TestStdoutGolden pins every row of these runs across commits: a change
// to any protocol's forwarding, a tie-break in a relay selection, or the
// report layout fails here unless the files are regenerated on purpose
// with `go test ./cmd/manetsim -run StdoutGolden -update`.
func TestStdoutGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The header, loss and traffic rows print floats whose last digits
		// may move where multiply-adds fuse.
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
