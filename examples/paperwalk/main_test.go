package main

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/stdout.golden")

// TestStdoutGolden pins the walkthrough's whole stdout across commits:
// the clustering, the CH_HOP messages, every coverage set and GATEWAY
// selection, the cluster graphs and both broadcasts. Regenerate on
// purpose with `go test ./examples/paperwalk -update`.
func TestStdoutGolden(t *testing.T) {
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
