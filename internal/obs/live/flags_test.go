package live

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"clustercast/internal/obs"
)

// requireProfile fails unless path holds a non-empty gzip-compressed
// pprof profile.
func requireProfile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("profile %s missing: %v", path, err)
	}
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Fatalf("profile %s is not a gzip profile (%d bytes)", path, len(data))
	}
}

func TestStartDisabled(t *testing.T) {
	var f Flags
	s, err := f.Start("test", nil)
	if err != nil {
		t.Fatalf("Start with no outputs: %v", err)
	}
	if obs.Enabled() {
		t.Fatal("a session without manifest or telemetry enabled obs")
	}
	if s.Manifest == nil || s.Manifest.Tool != "test" {
		t.Fatalf("session manifest = %+v", s.Manifest)
	}
	var runErr error
	s.Close(&runErr)
	if runErr != nil {
		t.Fatalf("Close with no outputs: %v", runErr)
	}
}

func TestStartWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	f := Flags{CPUProfile: filepath.Join(dir, "cpu.out"), MemProfile: filepath.Join(dir, "mem.out")}
	s, err := f.Start("test", nil)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	// A tiny workload so the profiles have something to record.
	sink := 0
	for i := 0; i < 1_000_000; i++ {
		sink += i
	}
	_ = sink
	var runErr error
	s.Close(&runErr)
	if runErr != nil {
		t.Fatalf("Close: %v", runErr)
	}
	requireProfile(t, f.CPUProfile)
	requireProfile(t, f.MemProfile)
}

func TestStartBadPath(t *testing.T) {
	f := Flags{CPUProfile: filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.out")}
	if _, err := f.Start("test", nil); err == nil {
		t.Fatal("Start must fail on an unwritable CPU profile path")
	}
}

// TestSessionManifestOnSuccessOnly: a manifest turns the obs layer on for
// the run, lists the run's outputs and itself, and is written only when
// the run succeeded; profiles are complete either way.
func TestSessionManifestOnSuccessOnly(t *testing.T) {
	for _, fail := range []bool{false, true} {
		dir := t.TempDir()
		f := Flags{
			CPUProfile: filepath.Join(dir, "cpu.out"),
			MemProfile: filepath.Join(dir, "mem.out"),
			Manifest:   filepath.Join(dir, "manifest.json"),
		}
		s, err := f.Start("test", nil)
		if err != nil {
			t.Fatal(err)
		}
		if !obs.Enabled() {
			t.Fatal("-manifest did not enable obs for the run")
		}
		s.Manifest.Param("k", 1)
		tpath := filepath.Join(dir, "trace.jsonl")
		tr := obs.NewTracer(4)
		tr.Send(0, 1, -1)
		if err := s.WriteTrace(tpath, tr); err != nil {
			t.Fatal(err)
		}
		var runErr error
		if fail {
			runErr = errors.New("boom")
		}
		s.Close(&runErr)
		if obs.Enabled() {
			t.Fatal("Close left obs enabled")
		}
		requireProfile(t, f.CPUProfile)
		requireProfile(t, f.MemProfile)
		m, err := obs.ReadManifest(f.Manifest)
		if fail {
			if runErr == nil || runErr.Error() != "boom" {
				t.Fatalf("Close replaced the run's error: %v", runErr)
			}
			if !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("failed run left a manifest (read: %v)", err)
			}
			continue
		}
		if runErr != nil || err != nil {
			t.Fatalf("Close: %v; reading manifest: %v", runErr, err)
		}
		if m.Tool != "test" || m.Params["k"] != "1" || len(m.Outputs) != 2 {
			t.Fatalf("manifest = %+v, want tool, param and outputs trace + manifest", m)
		}
	}
}
