package main

import (
	"bytes"
	"flag"
	"os"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/stdout.golden")

// TestStdoutGolden pins the example's whole stdout across commits: every
// backbone size and per-type message count comes from the wire protocol,
// so a change to its election, coverage exchange, gateway selection or
// GATEWAY propagation fails here unless the file is regenerated on
// purpose with `go test ./examples/distributed -update`.
func TestStdoutGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The messages-per-node ratios are printed as floats.
		t.Skip("golden stdout is recorded on amd64")
	}
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/stdout.golden"
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
}
