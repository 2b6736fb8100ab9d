package obs

import (
	"sync/atomic"
	"time"
)

// Progress is a live completion meter: a monotonically increasing done
// count against an optional total, with the start time of the first step
// recorded so samplers can derive rate and ETA. It follows the package's
// zero-cost contract — Step/Add on a disabled package (or a nil Progress)
// is one predictable branch, and the only time.Now call happens once, on
// the first enabled step.
//
// Totals are advisory: work whose extent is unknown up front (the adaptive
// replication loops, which stop on a confidence interval) reports done and
// rate only, and views carry ETA -1. Work with a known extent (sweep
// points, fixed replicate counts) calls AddTotal as it learns about units
// of work, and views carry a real ETA.
type Progress struct {
	name    string
	total   atomic.Int64
	done    atomic.Int64
	startNs atomic.Int64 // unix nanos of the first enabled step; 0 = unstarted
}

// Name returns the progress meter's registered name.
func (p *Progress) Name() string {
	if p == nil {
		return ""
	}
	return p.name
}

// Step records one completed unit. No-op when disabled or p is nil.
func (p *Progress) Step() { p.Add(1) }

// Add records n completed units. No-op when disabled or p is nil.
func (p *Progress) Add(n int64) {
	if p == nil || !enabled.Load() {
		return
	}
	if p.startNs.Load() == 0 {
		p.startNs.CompareAndSwap(0, time.Now().UnixNano())
	}
	p.done.Add(n)
}

// AddTotal grows the expected total by n. No-op when disabled or p is nil.
func (p *Progress) AddTotal(n int64) {
	if p == nil || !enabled.Load() {
		return
	}
	p.total.Add(n)
}

// Done returns the completed-unit count.
func (p *Progress) Done() int64 {
	if p == nil {
		return 0
	}
	return p.done.Load()
}

// Total returns the expected total (0 when unknown).
func (p *Progress) Total() int64 {
	if p == nil {
		return 0
	}
	return p.total.Load()
}

// ProgressView is one exported progress reading. Rate is completed units
// per second since the first step; ETASeconds is the projected remaining
// wall-clock, -1 when the total is unknown or nothing has completed yet.
type ProgressView struct {
	Name       string  `json:"name"`
	Done       int64   `json:"done"`
	Total      int64   `json:"total"`
	Rate       float64 `json:"rate"`
	ETASeconds float64 `json:"eta_s"`
}

// View exports the meter's reading as of now.
func (p *Progress) View(now time.Time) ProgressView {
	v := ProgressView{ETASeconds: -1}
	if p == nil {
		return v
	}
	v.Name = p.name
	v.Done = p.done.Load()
	v.Total = p.total.Load()
	start := p.startNs.Load()
	if start == 0 || v.Done == 0 {
		return v
	}
	elapsed := float64(now.UnixNano()-start) / float64(time.Second)
	if elapsed <= 0 {
		elapsed = float64(time.Nanosecond) / float64(time.Second)
	}
	v.Rate = float64(v.Done) / elapsed
	if v.Total > 0 && v.Rate > 0 {
		remaining := float64(v.Total-v.Done) / v.Rate
		if remaining < 0 {
			remaining = 0
		}
		v.ETASeconds = remaining
	}
	return v
}

// reset zeroes the meter (registry Reset).
func (p *Progress) reset() {
	p.total.Store(0)
	p.done.Store(0)
	p.startNs.Store(0)
}
