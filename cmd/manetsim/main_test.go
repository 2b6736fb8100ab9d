package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clustercast/internal/core"
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
	cfg := config{n: 20, d: 8, seed: 1, source: 0, protocols: "warp-drive"}
	if err := run(cfg, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "unknown protocol") {
		t.Fatalf("want unknown-protocol error, got %v", err)
	}
}

func TestRunSourceOutOfRange(t *testing.T) {
	cfg := config{n: 20, d: 8, seed: 1, source: 99, protocols: "flooding"}
	if err := run(cfg, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("want out-of-range error, got %v", err)
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
}

func TestRunLoadMissingFile(t *testing.T) {
	cfg := config{seed: 1, source: 0, protocols: "flooding", load: "/does/not/exist.json"}
	if err := run(cfg, &bytes.Buffer{}); err == nil {
		t.Fatal("missing snapshot must error")
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

// TestRunTrafficBadSpec: a malformed spec is a user error, not a panic.
func TestRunTrafficBadSpec(t *testing.T) {
	cfg := config{n: 20, d: 8, seed: 1, source: 0, protocols: "flooding", traffic: "proc=warp"}
	if err := run(cfg, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "-traffic") {
		t.Fatalf("want -traffic parse error, got %v", err)
	}
}
