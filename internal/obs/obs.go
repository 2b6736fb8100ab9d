// Package obs is the repo's zero-overhead observability layer: a metrics
// registry (counters, gauges, progress meters), a broadcast trace
// recorder, per-stage wall/alloc clocks, and run manifests.
//
// The design goal is that instrumented kernels cost nothing when
// observability is off, which is the default:
//
//   - Metric mutation methods (Counter.Add, Gauge.Set, Progress.Add)
//     first check the package-level enabled flag — one relaxed atomic bool
//     load, no allocation, no lock — and return immediately when it is off.
//     Hot paths therefore call them unconditionally; cold paths that would
//     pay to *prepare* an observation (time.Now, ReadMemStats) guard with
//     Enabled() themselves.
//   - Trace recording is driven by an explicit *Tracer handle. A nil tracer
//     is the Nop default: engine loops guard every event with a local
//     `tr != nil` check that the branch predictor eats for free, and the
//     protocol-side hooks never run their per-element bookkeeping unless a
//     tracer is attached.
//
// Enable() is flipped by the CLIs' run harness (live.Flags) when the user
// asks for a manifest or telemetry; simulations never flip it themselves.
package obs

import "sync/atomic"

// enabled is the package-level gate metric mutations check. Off by
// default: an uninstrumented run must measure identically to one built
// without the obs package at all.
var enabled atomic.Bool

// Enable turns metric recording on (trace recording is controlled by
// attaching a Tracer, not by this flag).
func Enable() { enabled.Store(true) }

// Disable turns metric recording back off.
func Disable() { enabled.Store(false) }

// Enabled reports whether metric recording is on. Instrumentation that
// must *prepare* an observation (a time.Now call, a MemStats read) checks
// this before paying that cost; plain counter bumps just call Add, which
// performs the same check internally.
func Enabled() bool { return enabled.Load() }
