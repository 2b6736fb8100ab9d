package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"clustercast/internal/broadcast"
	"clustercast/internal/core"
	"clustercast/internal/faults"
	"clustercast/internal/geom"
	"clustercast/internal/topology"
	"clustercast/internal/workload"
)

func TestRunAllProtocols(t *testing.T) {
	var out bytes.Buffer
	cfg := config{n: 40, d: 10, seed: 3, source: -1, protocols: "all"}
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, proto := range []string{"flooding", "pdp", "dynamic-2.5", "mo-cds", "fwd-tree", "counter-3"} {
		if !strings.Contains(s, proto) {
			t.Fatalf("output missing protocol %q:\n%s", proto, s)
		}
	}
	if !strings.Contains(s, "100.0%") {
		t.Fatal("no protocol reported full delivery")
	}
}

func TestRunSelectedProtocols(t *testing.T) {
	var out bytes.Buffer
	cfg := config{n: 30, d: 8, seed: 5, source: 0, protocols: "flooding,dynamic-2.5"}
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "flooding") || !strings.Contains(s, "dynamic-2.5") {
		t.Fatalf("selected protocols missing:\n%s", s)
	}
	// The summary line mentions "mo-cds=…", so look for the table row form.
	if strings.Contains(s, "\nmo-cds ") || strings.Contains(s, "\npdp ") {
		t.Fatal("unselected protocol row printed")
	}
}

func TestRunUnknownProtocol(t *testing.T) {
	var out bytes.Buffer
	cfg := config{n: 20, d: 8, seed: 1, source: 0, protocols: "warp-drive"}
	if err := run(cfg, &out); err == nil || !strings.Contains(err.Error(), "unknown protocol") {
		t.Fatalf("want unknown-protocol error, got %v", err)
	}
	if out.Len() != 0 {
		t.Fatalf("rejected run printed %q", out.String())
	}
}

// TestProtocolNamesMatchRows: the names the command line is checked
// against are the table's rows, in order.
func TestProtocolNamesMatchRows(t *testing.T) {
	nw, err := core.NewRandomNetwork(core.NetworkSpec{N: 20, AvgDegree: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, r := range buildRuns(nw, 0, 1, nil, func() *faults.Oracle { return nil }) {
		names = append(names, r.name)
	}
	if !slices.Equal(names, protocolNames) {
		t.Fatalf("rows %v, checked names %v", names, protocolNames)
	}
}

func TestRunRejectsNegativeBuildWorkers(t *testing.T) {
	var out bytes.Buffer
	cfg := config{n: 20, d: 8, seed: 1, source: 0, protocols: "flooding", buildW: -4}
	if err := run(cfg, &out); err == nil || !strings.HasPrefix(err.Error(), "-buildworkers ") {
		t.Fatalf("want a -buildworkers error, got %v", err)
	}
	if out.Len() != 0 {
		t.Fatalf("rejected run printed %q", out.String())
	}
}

// TestRunSourceOutOfRange: a -source past the network, or below -1 (the
// one negative value, a random source), fails before anything is printed;
// below -1 it fails with -load too, before the snapshot is read.
func TestRunSourceOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		source int
		load   string
		want   string
	}{
		{99, "", "source 99 out of range"},
		{-7, "", "-source -7: "},
		{-7, "/does/not/exist.json", "-source -7: "},
	} {
		var out bytes.Buffer
		cfg := config{n: 20, d: 8, seed: 1, source: tc.source, protocols: "flooding", load: tc.load}
		if err := run(cfg, &out); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("-source %d, load %q: want an error with %q, got %v", tc.source, tc.load, tc.want, err)
		}
		if out.Len() != 0 {
			t.Fatalf("-source %d, load %q: rejected run printed %q", tc.source, tc.load, out.String())
		}
	}
}

// TestRunFaultsBadSpec: a fault spec that does not parse fails the run
// before anything is printed.
func TestRunFaultsBadSpec(t *testing.T) {
	for _, spec := range []string{"mtbf=0", "warp=1"} {
		var out bytes.Buffer
		cfg := config{n: 20, d: 8, seed: 1, source: 0, protocols: "all", faults: spec}
		if err := run(cfg, &out); err == nil || !strings.HasPrefix(err.Error(), "-faults: ") {
			t.Fatalf("-faults %s: want a parse error, got %v", spec, err)
		}
		if out.Len() != 0 {
			t.Fatalf("-faults %s: rejected run printed %q", spec, out.String())
		}
	}
}

func TestRunWire(t *testing.T) {
	var out bytes.Buffer
	cfg := config{n: 30, d: 8, seed: 7, source: 0, protocols: "flooding", wire: true}
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wire protocol") ||
		!strings.Contains(out.String(), "HELLO=30") {
		t.Fatalf("wire summary missing:\n%s", out.String())
	}
}

func TestRunLoadSnapshot(t *testing.T) {
	// Save a snapshot via the topology API, then load it through the CLI
	// path.
	nw, err := core.NewRandomNetwork(core.NetworkSpec{N: 25, AvgDegree: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "net.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Topology.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var out bytes.Buffer
	cfg := config{seed: 1, source: 0, protocols: "flooding", load: path}
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "n=25") {
		t.Fatalf("loaded network not reflected:\n%s", out.String())
	}

	// The source is checked against the snapshot's size, before anything
	// is printed; -n does not bound it.
	out.Reset()
	cfg = config{n: 1000, seed: 1, source: 25, protocols: "flooding", load: path}
	if err := run(cfg, &out); err == nil || !strings.Contains(err.Error(), "out of range (n=25)") {
		t.Fatalf("want out-of-range error, got %v", err)
	}
	if out.Len() != 0 {
		t.Fatalf("rejected run printed %q", out.String())
	}
}

func TestRunLoadMissingFile(t *testing.T) {
	cfg := config{seed: 1, source: 0, protocols: "flooding", load: "/does/not/exist.json"}
	if err := run(cfg, &bytes.Buffer{}); err == nil {
		t.Fatal("missing snapshot must error")
	}
}

// TestRunLoadDisconnectedRunsEveryRow: on a disconnected snapshot the
// fwd-tree row, which needs a connected network, fails in its own row;
// every other row and the reports still run, and the run fails naming
// the failed row. Traced, the failed row writes no trace.
func TestRunLoadDisconnectedRunsEveryRow(t *testing.T) {
	// Two five-node chains 50 units apart: no link joins them.
	var pos []geom.Point
	for i := 0; i < 5; i++ {
		pos = append(pos, geom.Point{X: float64(10 + 5*i), Y: 20}, geom.Point{X: float64(10 + 5*i), Y: 70})
	}
	tn := topology.FromPositions(pos, geom.Square(100), 6)
	if tn.G.Connected() {
		t.Fatal("snapshot must be disconnected")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "net.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var out bytes.Buffer
	cfg := config{seed: 1, source: 0, protocols: "all", load: path, wire: true}
	if err := run(cfg, &out); err == nil || !strings.Contains(err.Error(), "fwd-tree") {
		t.Fatalf("want an error naming the fwd-tree row, got %v", err)
	}
	s := out.String()
	for _, r := range buildRuns(core.FromTopology(tn), 0, 1, nil, func() *faults.Oracle { return nil }) {
		if !strings.Contains(s, "\n"+r.name+" ") {
			t.Errorf("row %q missing:\n%s", r.name, s)
		}
	}
	if !strings.Contains(s, "\nfwd-tree     failed: ") || !strings.Contains(s, "wire protocol") {
		t.Fatalf("failed row or wire report missing:\n%s", s)
	}

	cfg = config{seed: 1, source: 0, protocols: "fwd-tree", load: path, trace: filepath.Join(dir, "t.jsonl")}
	if err := run(cfg, &bytes.Buffer{}); err == nil {
		t.Fatal("failed traced row must fail the run")
	}
	if _, err := os.Stat(cfg.trace); !os.IsNotExist(err) {
		t.Fatalf("failed traced row wrote a trace (stat: %v)", err)
	}
}

// TestRunDESByteIdentical: the calendar engines reproduce the comparison
// table of the scalar round loops they replaced byte for byte — every
// protocol row, the wire-protocol section, and a churn fault schedule
// included. The scalar output is pinned by its SHA-256 digest.
func TestRunDESByteIdentical(t *testing.T) {
	for i, tc := range []struct {
		cfg    config
		digest string
	}{
		{config{n: 40, d: 10, seed: 3, source: -1, protocols: "all", wire: true},
			"11b10b1c71193ab8de7026955ba94e2c4cfed37f4ff2ccbe4553f3e1c9b9f1a2"},
		{config{n: 30, d: 8, seed: 5, source: 0, protocols: "all", faults: "mtbf=60,mttr=20"},
			"1dc9099d4c4faaf0fd258c8dda1a6826c2f0a35f649be404ff43a47c05375115"},
	} {
		var out bytes.Buffer
		if err := run(tc.cfg, &out); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(out.Bytes())); got != tc.digest {
			t.Errorf("cfg %d: output digest %s, want the scalar engines' %s:\n%s", i, got, tc.digest, out.String())
		}
	}
}

// TestRunTrafficReport: the -traffic flag appends a per-backbone load
// report, byte-identical to the scalar multi-source engine's (pinned by
// its SHA-256 digest).
func TestRunTrafficReport(t *testing.T) {
	var out bytes.Buffer
	cfg := config{n: 40, d: 10, seed: 3, source: 0, protocols: "flooding",
		traffic: "proc=poisson,rate=0.3,flows=16"}
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "traffic workload:") || !strings.Contains(s, "throughput") {
		t.Fatalf("traffic report missing:\n%s", s)
	}
	for _, row := range []string{"flooding", "static-2.5", "dynamic-2.5", "mo-cds"} {
		if !strings.Contains(s, row) {
			t.Fatalf("traffic report missing backbone %q:\n%s", row, s)
		}
	}
	const digest = "736ceaf00e7a88fd2ac4b304be3d7defca9a209d177b53dff230e2cc04d60263"
	if got := fmt.Sprintf("%x", sha256.Sum256(out.Bytes())); got != digest {
		t.Fatalf("traffic report digest %s, want the scalar engine's %s", got, digest)
	}
}

// tableRows returns the rows, keyed by protocol, of the table in a run's
// output whose header names the column: "forwards" for the protocol
// table, "throughput" for the traffic table.
func tableRows(out, column string) map[string]string {
	rows := map[string]string{}
	in := false
	for _, line := range strings.Split(out, "\n") {
		switch {
		case !in && strings.HasPrefix(line, "protocol ") && strings.Contains(line, column):
			in = true
		case in && line == "":
			return rows
		case in:
			rows[strings.Fields(line)[0]] = line
		}
	}
	return rows
}

// TestRunRowsIndependentUnderLoss: under a lossy fault schedule every
// row of the full table equals the same row run alone. Each row draws
// its loss coins from its own oracle, so no row starts where an earlier
// row left a link's per-slot copy count.
func TestRunRowsIndependentUnderLoss(t *testing.T) {
	cfg := config{n: 80, d: 10, seed: 7, source: 0, protocols: "all", faults: "loss=0.3"}
	var full bytes.Buffer
	if err := run(cfg, &full); err != nil {
		t.Fatal(err)
	}
	rows := tableRows(full.String(), "forwards")
	if len(rows) != 16 {
		t.Fatalf("full table has %d rows, want 16:\n%s", len(rows), full.String())
	}
	for name, row := range rows {
		alone := cfg
		alone.protocols = name
		var out bytes.Buffer
		if err := run(alone, &out); err != nil {
			t.Fatal(err)
		}
		if got := tableRows(out.String(), "forwards")[name]; got != row {
			t.Errorf("%s: full table row\n  %q\nrun alone\n  %q", name, row, got)
		}
	}
}

// TestRunTrafficRowsOwnOracle: under a lossy fault schedule the last
// traffic row, mo-cds, equals a multi-source run of the MO_CDS on a fresh
// oracle, as though no backbone had run before it.
func TestRunTrafficRowsOwnOracle(t *testing.T) {
	cfg := config{n: 80, d: 10, seed: 7, source: 0, protocols: "flooding",
		faults: "loss=0.3", traffic: "proc=poisson,rate=0.3,flows=24"}
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	nw, err := loadNetwork(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := parse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	flows, err := ps.traffic.Generate(nw.N())
	if err != nil {
		t.Fatal(err)
	}
	o := faults.New(*ps.faults, nw.N())
	o.SetPositions(nw.Topology.Positions)
	mo := broadcast.StaticCDS{Set: nw.MOCDS(), Label: "mo-cds"}
	tr := workload.RunTraffic(nw.Graph(), flows, func(int) broadcast.Protocol { return mo },
		broadcast.MACOptions{Jitter: 3, Faults: o}, broadcast.RunMACMulti)
	want := fmt.Sprintf("%-12s %8.1f%% %10.2f %9.1f %10d %6d", "mo-cds", 100*tr.DeliveryRatio, tr.Throughput,
		tr.MeanLatency, tr.Collisions, tr.CrossCollisions)
	if got := tableRows(out.String(), "throughput")["mo-cds"]; got != want {
		t.Fatalf("traffic row\n  %q\nfresh-oracle run\n  %q\n%s", got, want, out.String())
	}
}

// TestRunTrafficDiscovery: discovery=1 switches to the route-discovery
// report.
func TestRunTrafficDiscovery(t *testing.T) {
	var out bytes.Buffer
	cfg := config{n: 40, d: 10, seed: 4, source: 0, protocols: "flooding",
		traffic: "proc=bursty,burst=2,every=12,flows=12,discovery=1"}
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "success") || !strings.Contains(s, "routelen") {
		t.Fatalf("discovery report missing:\n%s", s)
	}
}

// TestRunTrafficBadSpec: a malformed spec is a user error, not a panic,
// and it fails the run before any protocol runs.
func TestRunTrafficBadSpec(t *testing.T) {
	for _, spec := range []string{"proc=warp", "foo=1"} {
		var out bytes.Buffer
		cfg := config{n: 20, d: 8, seed: 1, source: 0, protocols: "all", traffic: spec}
		if err := run(cfg, &out); err == nil || !strings.Contains(err.Error(), "-traffic") {
			t.Fatalf("-traffic %s: want a parse error, got %v", spec, err)
		}
		if out.Len() != 0 {
			t.Fatalf("-traffic %s: rejected run printed %q", spec, out.String())
		}
	}
}
