package main

import (
	"runtime/metrics"
	"time"
)

// tracer times the calls the benchmark makes into each pipeline layer, from
// outside the layer. Spans nest, and a layer is charged its self time: the
// span's duration minus the spans it encloses. The root span of an op is
// "experiment.self", so the layer times of one op plus the root's self time
// add up to the op's measured time.
//
// Work done aside — output checks, and the engine and worker-count twins a
// traced run times on identical inputs — is excluded from every enclosing
// span and from the op. A disabled tracer (the untraced run) calls span
// bodies directly and records nothing, but still excludes aside work, so
// checks never count as measured time; it calls spanEnd, when set, after
// every span outside aside work.
type tracer struct {
	on      bool
	inAside bool
	stack   []frame
	asideD  time.Duration // aside time inside the current op
	sums    map[string]float64
	allocs  []metrics.Sample
	spanEnd func()
}

type frame struct {
	name  string
	start time.Time
	child time.Duration // time covered by enclosed spans and aside work
}

func newTracer(on bool) *tracer {
	return &tracer{
		on:     on,
		sums:   make(map[string]float64),
		allocs: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// op runs one pass of a workload under the root span and returns its
// measured time: wall time minus the aside work done inside it.
func (t *tracer) op(fn func()) time.Duration {
	t.asideD = 0
	start := time.Now()
	if !t.on {
		fn()
		return time.Since(start) - t.asideD
	}
	t.stack = append(t.stack[:0], frame{name: "experiment.self", start: start})
	fn()
	return t.pop() - t.asideD
}

// span runs fn as one call into layer name; the layer is charged fn's self
// time under "<name>_ms".
func (t *tracer) span(name string, fn func()) {
	if !t.on || t.inAside {
		fn()
		if t.spanEnd != nil && !t.inAside {
			t.spanEnd()
		}
		return
	}
	t.stack = append(t.stack, frame{name: name, start: time.Now()})
	fn()
	t.pop()
}

// spanAlloc is span that also charges the bytes fn allocates to
// "<alloc>" in MiB.
func (t *tracer) spanAlloc(name, alloc string, fn func()) {
	if !t.on || t.inAside {
		t.span(name, fn)
		return
	}
	before := t.allocated()
	t.span(name, fn)
	t.sums[alloc] += float64(t.allocated()-before) / (1 << 20)
}

func (t *tracer) allocated() uint64 {
	metrics.Read(t.allocs)
	return t.allocs[0].Value.Uint64()
}

// pop closes the innermost span and returns its duration.
func (t *tracer) pop() time.Duration {
	i := len(t.stack) - 1
	f := t.stack[i]
	t.stack = t.stack[:i]
	d := time.Since(f.start)
	t.sums[f.name+"_ms"] += ms(d - f.child)
	if i > 0 {
		t.stack[i-1].child += d
	}
	return d
}

// aside runs fn outside the measured op. When name is not empty and the
// tracer is on, fn's duration is also added to "<name>" in milliseconds.
// Asides nest; the outermost one is excluded once.
func (t *tracer) aside(name string, fn func()) {
	outer := !t.inAside
	t.inAside = true
	start := time.Now()
	fn()
	d := time.Since(start)
	if outer {
		t.inAside = false
		t.asideD += d
		if n := len(t.stack); n > 0 {
			t.stack[n-1].child += d
		}
	}
	if name != "" && t.on {
		t.sums[name] += ms(d)
	}
}

// twins times the same call at one and at two workers, aside, in the order
// 1, 2, 2, 1 so that neither side always runs on warmer caches. The times
// accumulate under "<name>.w1" and "<name>.w2"; the w2 speed-up is their
// ratio. Nothing is recorded when the tracer is off.
func (t *tracer) twins(name string, run func(workers int)) {
	if !t.on {
		return
	}
	t.aside("", func() {
		for _, w := range []int{1, 2, 2, 1} {
			t.aside(name+".w"+string(rune('0'+w)), func() { run(w) })
		}
	})
}

// add accumulates a count under name when the tracer is on.
func (t *tracer) add(name string, v float64) {
	if t.on {
		t.sums[name] += v
	}
}

// spanV is span for a call that returns one value.
func spanV[T any](t *tracer, name string, fn func() T) (v T) {
	t.span(name, func() { v = fn() })
	return v
}
