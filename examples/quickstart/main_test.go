package main

import (
	"bytes"
	"flag"
	"os"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/stdout.golden")

// TestStdoutGolden pins the quickstart's whole stdout across commits: the
// network summary, the clusterheads, the static backbone's size and the
// three broadcasts. Regenerate on purpose with
// `go test ./examples/quickstart -update`.
func TestStdoutGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The summary prints floats whose last digits may move where
		// multiply-adds fuse.
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
