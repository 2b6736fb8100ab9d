package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clustercast/internal/obs"
)

// writeTrace records a synthetic event stream to a JSONL file.
func writeTrace(t *testing.T, events func(tr *obs.Tracer)) string {
	t.Helper()
	tr := obs.NewTracer(256)
	events(tr)
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSONL(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// completeBroadcast records a consistent two-hop broadcast:
// 0 -> {1,2}; 1 relays -> 2 hears a duplicate; one prune, one collision.
func completeBroadcast(tr *obs.Tracer) {
	tr.SetTime(0)
	tr.Send(0, 0, -1)
	tr.GatewaySelect(0, 1)
	tr.CoveragePrune(0, 2, obs.RuleUpstreamSender)
	tr.SetTime(1)
	tr.Deliver(1, 1, 0)
	tr.Deliver(1, 2, 0)
	tr.Send(1, 1, 0)
	tr.SetTime(2)
	tr.Duplicate(2, 2, 1)
	tr.Collision(2, 3)
}

func TestRunCompleteTrace(t *testing.T) {
	path := writeTrace(t, completeBroadcast)
	var out bytes.Buffer
	if err := run(path, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"trace: 8 events",
		"source: 0",
		"forward nodes: 2   reached: 3",
		"sends=2 delivers=2 duplicates=1 collisions=1 gateway-selects=1 prunes=1",
		"upstream-sender",
		"per-hop timeline:",
		"reconciliation: ok",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
	// Hop 1 row: 1 send, 2 delivers, cumulative covered 3.
	found := false
	for _, line := range strings.Split(s, "\n") {
		f := strings.Fields(line)
		if len(f) == 6 && f[0] == "1" {
			found = true
			if f[1] != "1" || f[2] != "2" || f[5] != "3" {
				t.Fatalf("hop-1 row wrong: %q", line)
			}
		}
	}
	if !found {
		t.Fatalf("no hop-1 timeline row:\n%s", s)
	}
}

// TestRunChurnCounts: a trace with fault-schedule churn reports its crash
// and recovery counts; one without prints no churn line.
func TestRunChurnCounts(t *testing.T) {
	path := writeTrace(t, func(tr *obs.Tracer) {
		completeBroadcast(tr)
		tr.NodeCrash(0, 4)
		tr.NodeCrash(1, 5)
		tr.NodeRecover(2, 4)
	})
	var out bytes.Buffer
	if err := run(path, &out); err != nil {
		t.Fatal(err)
	}
	if s := out.String(); !strings.Contains(s, "node-crashes=2 node-recovers=1") || !strings.Contains(s, "reconciliation: ok") {
		t.Fatalf("churn counts or reconciliation missing:\n%s", s)
	}
	out.Reset()
	if err := run(writeTrace(t, completeBroadcast), &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "node-crashes") {
		t.Fatalf("churn line printed for a trace without churn:\n%s", out.String())
	}
}

func TestRunInconsistentTrace(t *testing.T) {
	// A relay that never received the packet must be flagged.
	path := writeTrace(t, func(tr *obs.Tracer) {
		tr.Send(0, 0, -1)
		tr.Send(1, 5, 0) // node 5 transmits without a deliver event
	})
	var out bytes.Buffer
	if err := run(path, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "WARN node 5 transmitted but never received") {
		t.Fatalf("missing reconciliation warning:\n%s", out.String())
	}
}

func TestRunTruncatedTrace(t *testing.T) {
	// Overflow a tiny ring: the inspector must report the overwritten
	// prefix instead of flagging bogus inconsistencies.
	tr := obs.NewTracer(4)
	tr.Send(0, 0, -1)
	for v := 1; v <= 8; v++ {
		tr.Deliver(1, v, 0)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSONL(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var out bytes.Buffer
	if err := run(path, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "(+5 overwritten by the ring)") {
		t.Fatalf("missing ring-overwrite note:\n%s", s)
	}
	if !strings.Contains(s, "WARN ring overwrote 5 leading events") {
		t.Fatalf("missing partial-trace warning:\n%s", s)
	}
}

func TestRunEmptyTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(path, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("want empty-trace error, got %v", err)
	}
}

func TestRunMalformedTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(path, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(path, &bytes.Buffer{}); err == nil {
		t.Fatal("want parse error on malformed trace")
	}
}

func TestRunMissingFile(t *testing.T) {
	if err := run("/does/not/exist.jsonl", &bytes.Buffer{}); err == nil {
		t.Fatal("want error for missing file")
	}
}
