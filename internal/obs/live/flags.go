package live

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"clustercast/internal/obs"
)

// Flags is the run-harness flag bundle every CLI registers identically:
//
//	-cpuprofile file       write a CPU profile of the run to file
//	-memprofile file       write a heap profile to file after the run
//	-manifest file         write a run manifest (JSON) to file
//	-telemetry addr        serve /metrics, /progress, /stages, pprof
//	-heartbeat file        stream heartbeat JSONL records to file
//	-hb-every duration     heartbeat sampling interval
//	-telemetry-scrape dir  self-scrape /metrics + /progress into dir on exit
//
// Start turns them into the Session that runs one invocation's lifecycle,
// so a flag means the same thing in every CLI.
//
// The scrape flag exists for CI smoke tests: instead of racing an external
// curl against the process lifetime, the CLI scrapes its own endpoints
// right before shutdown, so `make telemetry-smoke` gets deterministic
// artifacts.
type Flags struct {
	CPUProfile string
	MemProfile string
	Manifest   string
	Addr       string
	Heartbeat  string
	Every      time.Duration
	ScrapeDir  string
}

// Register installs the harness flags on fs (the CLIs pass
// flag.CommandLine).
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file after the run")
	fs.StringVar(&f.Manifest, "manifest", "", "write a run manifest (JSON) to this file")
	fs.StringVar(&f.Addr, "telemetry", "",
		"serve live telemetry (/metrics, /progress, /stages, /debug/pprof) on this address (e.g. 127.0.0.1:9090; empty = off)")
	fs.StringVar(&f.Heartbeat, "heartbeat", "",
		"stream heartbeat records (JSONL) to this file while the run executes")
	fs.DurationVar(&f.Every, "hb-every", DefaultInterval, "heartbeat sampling interval")
	fs.StringVar(&f.ScrapeDir, "telemetry-scrape", "",
		"scrape this run's own /metrics and /progress into this directory before exit (requires -telemetry)")
}

// Session is one CLI invocation, from Flags.Start to Close.
//
// Manifest is never nil: the CLI fills in Seed, Workers and Params and
// records its outputs unconditionally, and Close writes it only when
// -manifest was set and the run succeeded.
type Session struct {
	Manifest *obs.Manifest
	flags    Flags
	status   io.Writer
	metered  bool // Start enabled obs; Close disables it
	cpu      *os.File
	server   *Server
	sampler  *Sampler
}

// Start begins the run: it starts the CPU profile and, when a manifest or
// any telemetry output was requested, enables the obs layer with a fresh
// registry and stage table, serves the telemetry endpoint and starts the
// heartbeat stream. Status lines go to status (the CLIs pass stderr:
// stdout carries their report); nil silences them. On error, whatever had
// started is already torn down, heap profile included.
func (f *Flags) Start(tool string, status io.Writer) (s *Session, err error) {
	s = &Session{Manifest: obs.NewManifest(tool), flags: *f, status: status}
	defer func() {
		if err != nil {
			s.Close(&err)
			s = nil
		}
	}()
	if f.CPUProfile != "" {
		if s.cpu, err = os.Create(f.CPUProfile); err != nil {
			return s, err
		}
		if err = pprof.StartCPUProfile(s.cpu); err != nil {
			s.cpu.Close()
			s.cpu = nil
			return s, fmt.Errorf("starting CPU profile: %w", err)
		}
	}
	if f.ScrapeDir != "" && f.Addr == "" {
		return s, fmt.Errorf("live: -telemetry-scrape requires -telemetry")
	}
	if f.Manifest == "" && f.Addr == "" && f.Heartbeat == "" {
		return s, nil
	}
	obs.Enable()
	s.metered = true
	obs.Default.Reset()
	obs.ResetStages()
	if f.Addr != "" {
		if s.server, err = Serve(f.Addr, nil); err != nil {
			return s, err
		}
		s.statusf("telemetry: serving http://%s/metrics\n", s.server.Addr())
	}
	if f.Heartbeat != "" {
		if s.sampler, err = StartFile(f.Heartbeat, Options{Interval: f.Every}); err != nil {
			return s, err
		}
		s.statusf("telemetry: heartbeats -> %s (every %v)\n", f.Heartbeat, f.Every)
	}
	return s, nil
}

func (s *Session) statusf(format string, args ...any) {
	if s.status != nil {
		fmt.Fprintf(s.status, format, args...)
	}
}

// WriteTrace writes tr's event stream as JSONL to path and records the
// file among the manifest's outputs.
func (s *Session) WriteTrace(path string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := tr.WriteJSONL(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("writing trace: %w", werr)
	}
	s.Manifest.AddOutput(path)
	return nil
}

// Close ends the run; CLIs defer it with their named error return. In
// order, it writes the manifest (only if *errp is nil), self-scrapes the
// telemetry endpoints, stops the server and the heartbeat stream (which
// writes the final heartbeat), turns obs back off, stops the CPU profile
// and writes the heap profile. Every step runs even when an earlier one
// failed, so a failed run still leaves complete profiles; *errp keeps the
// first error.
func (s *Session) Close(errp *error) {
	keep := func(err error) {
		if *errp == nil {
			*errp = err
		}
	}
	if *errp == nil && s.flags.Manifest != "" {
		s.Manifest.AddOutput(s.flags.Manifest)
		if err := s.Manifest.WriteFile(s.flags.Manifest); err != nil {
			keep(fmt.Errorf("writing manifest: %w", err))
		}
	}
	if s.server != nil {
		if s.flags.ScrapeDir != "" {
			keep(s.scrapeAll())
		}
		keep(s.server.Close())
	}
	if s.sampler != nil {
		keep(s.sampler.Stop())
	}
	if s.metered {
		obs.Disable()
	}
	if s.cpu != nil {
		pprof.StopCPUProfile()
		keep(s.cpu.Close())
	}
	if s.flags.MemProfile != "" {
		keep(writeHeapProfile(s.flags.MemProfile))
	}
}

// scrapeAll saves the session's own /metrics and /progress into the
// scrape directory.
func (s *Session) scrapeAll() error {
	dir := s.flags.ScrapeDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := s.scrape("/metrics", filepath.Join(dir, "metrics.prom")); err != nil {
		return err
	}
	if err := s.scrape("/progress", filepath.Join(dir, "progress.json")); err != nil {
		return err
	}
	s.statusf("telemetry: scraped /metrics and /progress into %s\n", dir)
	return nil
}

// scrape GETs one of the session's own endpoints into the file at path.
func (s *Session) scrape(endpoint, path string) error {
	url := "http://" + s.server.Addr() + endpoint
	resp, err := http.Get(url)
	if err != nil {
		return fmt.Errorf("live: scraping %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("live: scraping %s: status %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("live: scraping %s: %w", url, err)
	}
	return os.WriteFile(path, body, 0o644)
}

// writeHeapProfile snapshots the live heap, settled by a GC, into path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	werr := pprof.WriteHeapProfile(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("writing heap profile: %w", werr)
	}
	return nil
}
