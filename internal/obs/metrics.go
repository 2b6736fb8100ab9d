package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric with an atomic,
// allocation-free hot path. The zero-cost contract: Add on a disabled
// package (or a nil counter) is one predictable branch.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. No-op when observability is disabled or c is nil.
func (c *Counter) Add(n int64) {
	if c == nil || !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time metric (last value wins).
type Gauge struct {
	v atomic.Int64
}

// Set records the current value. No-op when disabled or g is nil.
func (g *Gauge) Set(v int64) {
	if g == nil || !enabled.Load() {
		return
	}
	g.v.Store(v)
}

// Add shifts the current value by delta. No-op when disabled or g is nil.
func (g *Gauge) Add(delta int64) {
	if g == nil || !enabled.Load() {
		return
	}
	g.v.Add(delta)
}

// SetMax raises the gauge to v if v exceeds the current value — the
// high-water-mark shape (wheel occupancy, per-stage heap peaks). No-op
// when disabled or g is nil.
func (g *Gauge) SetMax(v int64) {
	if g == nil || !enabled.Load() {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the last recorded value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry holds named metrics. Registration (Counter/Gauge/Progress) is
// idempotent and mutex-protected — it happens at package init or CLI
// startup, never on a hot path; the metrics themselves are lock-free.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	progress map[string]*Progress
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		progress: make(map[string]*Progress),
	}
}

// Default is the process-wide registry the package-level constructors
// register into; manifests snapshot it.
var Default = NewRegistry()

// NewCounter registers (or returns the existing) counter in Default.
func NewCounter(name string) *Counter { return Default.Counter(name) }

// NewGauge registers (or returns the existing) gauge in Default.
func NewGauge(name string) *Gauge { return Default.Gauge(name) }

// NewProgress registers (or returns the existing) progress meter in Default.
func NewProgress(name string) *Progress { return Default.Progress(name) }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Progress returns the named progress meter, creating it on first use.
func (r *Registry) Progress(name string) *Progress {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.progress[name]
	if p == nil {
		p = &Progress{name: name}
		r.progress[name] = p
	}
	return p
}

// Reset zeroes every registered metric, keeping the registrations (and the
// pointers instrumented code holds) intact. CLIs call it before a
// manifested run so the snapshot covers exactly that run.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, p := range r.progress {
		p.reset()
	}
}

// MetricValue is one exported counter or gauge reading.
type MetricValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Snapshot is a deterministic export of a registry: every section sorted
// by metric name, zero-valued metrics omitted so manifests only carry the
// signals the run actually produced.
type Snapshot struct {
	Counters []MetricValue `json:"counters,omitempty"`
	Gauges   []MetricValue `json:"gauges,omitempty"`
}

// Snapshot exports the registry's current readings.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s Snapshot
	for name, c := range r.counters {
		if v := c.v.Load(); v != 0 {
			s.Counters = append(s.Counters, MetricValue{Name: name, Value: v})
		}
	}
	for name, g := range r.gauges {
		if v := g.v.Load(); v != 0 {
			s.Gauges = append(s.Gauges, MetricValue{Name: name, Value: v})
		}
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	return s
}

// ProgressSnapshot exports every registered progress meter with at least
// one completed unit or a known total, sorted by name, as of now. Kept
// separate from Snapshot so run manifests (point-in-time provenance) do
// not grow rate/ETA fields that change between otherwise equal runs.
func (r *Registry) ProgressSnapshot(now time.Time) []ProgressView {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []ProgressView
	for _, p := range r.progress {
		v := p.View(now)
		if v.Done == 0 && v.Total == 0 {
			continue
		}
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
