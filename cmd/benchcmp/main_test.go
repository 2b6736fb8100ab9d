package main

import (
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: clustercast
BenchmarkSweepPoint   	     417	   2767097 ns/op	     184 B/op	       3 allocs/op
BenchmarkMobilityStep/sparse-10pct/incremental-8         	   73852	     16380 ns/op	       0 B/op	       0 allocs/op
BenchmarkFig6/d=6/static-2.5hop	     100	    500000 ns/op	        21.4 cds-size
PASS
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	m, ok := got["BenchmarkSweepPoint"]
	if !ok || m.nsOp != 2767097 || m.allocsOp != 3 {
		t.Fatalf("SweepPoint parsed as %+v (ok=%v)", m, ok)
	}
	// The -8 GOMAXPROCS suffix must be stripped.
	if _, ok := got["BenchmarkMobilityStep/sparse-10pct/incremental"]; !ok {
		t.Fatalf("suffixed benchmark name not normalized: %v", got)
	}
	if m := got["BenchmarkFig6/d=6/static-2.5hop"]; !m.hasNs || m.hasAlloc {
		t.Fatalf("custom-metric line parsed wrong: %+v", m)
	}
}

func f(v float64) *float64 { return &v }

func TestCompareFlagsRegressions(t *testing.T) {
	baseline := []baselineEntry{
		{Name: "BenchmarkSweepPoint", AfterNsOp: f(2500000), AfterAllocs: f(3)},
		{Name: "BenchmarkMobilityStep/sparse-10pct/incremental", AfterNsOp: f(40000)},
		{Name: "BenchmarkNotRun", AfterNsOp: f(1)},
	}
	got, err := parseBench(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	n := compare(&out, baseline, got, 0.10)
	if n != 1 {
		t.Fatalf("want exactly the ns/op regression flagged, got %d:\n%s", n, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "WARN") {
		t.Fatalf("missing WARN:\n%s", text)
	}
	if !strings.Contains(text, "improved") {
		t.Fatalf("the 2.4x faster mobility step should report as improved:\n%s", text)
	}
	if !strings.Contains(text, "not measured") {
		t.Fatalf("absent benchmark must be called out:\n%s", text)
	}
}

func TestScaleCurvesGroupByN(t *testing.T) {
	baseline := []baselineEntry{
		{Name: "BenchmarkScaleKernels/n=1000/dynamic25", AfterNsOp: f(1200000)},
		{Name: "BenchmarkScaleKernels/n=10000/dynamic25", AfterNsOp: f(18000000)},
		{Name: "BenchmarkScaleKernels/n=50000/dynamic25", AfterNsOp: f(220000000)},
		{Name: "BenchmarkSweepPoint", AfterNsOp: f(2500000)}, // non-scale: excluded
	}
	run := `BenchmarkScaleKernels/n=1000/dynamic25     10   900000 ns/op
BenchmarkScaleKernels/n=10000/dynamic25    10  9000000 ns/op
BenchmarkScaleKernels/n=100000/dynamic25   10  99000000 ns/op
PASS
`
	got, err := parseBench(strings.NewReader(run))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	scaleCurves(&out, baseline, got)
	text := out.String()
	if !strings.Contains(text, "ScaleKernels/dynamic25:") {
		t.Fatalf("curve header missing:\n%s", text)
	}
	// Points sorted by n, with the speedup factor where both sides exist.
	i1, i10, i50, i100 := strings.Index(text, "n=1000 "), strings.Index(text, "n=10000 "),
		strings.Index(text, "n=50000 "), strings.Index(text, "n=100000 ")
	if i1 < 0 || i10 < 0 || i50 < 0 || i100 < 0 || !(i1 < i10 && i10 < i50 && i50 < i100) {
		t.Fatalf("points missing or out of order (%d %d %d %d):\n%s", i1, i10, i50, i100, text)
	}
	if !strings.Contains(text, "(2.00x)") {
		t.Fatalf("2x speedup at n=10000 not reported:\n%s", text)
	}
	if !strings.Contains(text, "(not measured)") {
		t.Fatalf("baseline-only n=50000 point must say not measured:\n%s", text)
	}
	if strings.Contains(text, "SweepPoint") {
		t.Fatalf("non-scale benchmark leaked into curves:\n%s", text)
	}
}

func TestCompareWithinNoise(t *testing.T) {
	baseline := []baselineEntry{
		{Name: "BenchmarkSweepPoint", AfterNsOp: f(2767097), AfterAllocs: f(3)},
	}
	got, _ := parseBench(strings.NewReader(benchOutput))
	var out strings.Builder
	if n := compare(&out, baseline, got, 0.10); n != 0 {
		t.Fatalf("identical numbers flagged as regression:\n%s", out.String())
	}
}
