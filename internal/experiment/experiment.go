// Package experiment reproduces the paper's evaluation (§4): every figure
// is regenerated by a runner that sweeps the network size under the paper's
// methodology — random connected unit disk graphs in a 100×100 area, fixed
// average degree (6 or 18), replicated until the 99% confidence interval is
// within ±5% of the mean.
package experiment

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"clustercast/internal/geom"
	"clustercast/internal/obs"
	"clustercast/internal/rng"
	"clustercast/internal/stats"
	"clustercast/internal/topology"
)

// progPoints is the sweep-point completion meter behind every figure
// family: forEachPoint drives all of them, so instrumenting the pool once
// gives each driver a point-level ETA. Totals accumulate as runners
// announce work, so a multi-figure run's ETA covers what is still queued.
var progPoints = obs.NewProgress("sweep.points")

// Scenario fixes the workload parameters of one data point.
type Scenario struct {
	// N is the number of nodes.
	N int
	// AvgDegree is the target average node degree (paper: 6 and 18).
	AvgDegree float64
	// Bounds is the confined working space (paper: 100×100).
	Bounds geom.Rect
	// Seed roots all randomness of this data point.
	Seed uint64
	// Rule is the replication stopping rule (paper: 99% CI within ±5%).
	Rule stats.StopRule
}

// DefaultNs is the paper's network-size sweep: 20 to 100 nodes.
func DefaultNs() []int { return []int{20, 30, 40, 50, 60, 70, 80, 90, 100} }

// DefaultScenario returns the paper's setup for a given size and density.
func DefaultScenario(n int, d float64, seed uint64) Scenario {
	return Scenario{
		N:         n,
		AvgDegree: d,
		Bounds:    geom.Square(100),
		Seed:      seed,
		Rule:      stats.PaperRule(),
	}
}

// Sample draws one connected topology for replicate rep of the scenario,
// together with a per-replicate stream for further randomness (source
// selection). ok is false when no connected topology was found; the
// underlying generator error is kept for TakeSampleError.
func (sc Scenario) Sample(label string, rep int) (*topology.Network, *rng.Stream, bool) {
	r := rng.NewLabeled(sc.Seed^uint64(rep)*0x9E3779B97F4A7C15, label)
	nw, err := topology.Generate(topology.Config{
		N: sc.N, Bounds: sc.Bounds, AvgDegree: sc.AvgDegree,
		RequireConnected: true, MaxAttempts: 200,
	}, r)
	if err != nil {
		noteSampleError(label, rep, err)
		return nil, nil, false
	}
	return nw, r.Split(), true
}

// sampleErr keeps the first topology-generation error seen since the last
// TakeSampleError. Estimators report failed samples as bare skips (the
// replication loop treats them statistically), which used to drop the
// generator's descriptive diagnosis (attempt cap, connectivity) on the
// floor; runners now surface it next to "missing point" output.
var (
	sampleErrMu sync.Mutex
	sampleErr   error
)

// noteSampleError records a failed topology sample (first error wins, so
// concurrent workers report deterministically "some first" diagnosis).
func noteSampleError(label string, rep int, err error) {
	sampleErrMu.Lock()
	if sampleErr == nil {
		sampleErr = fmt.Errorf("sample %s rep %d: %w", label, rep, err)
	}
	sampleErrMu.Unlock()
}

// TakeSampleError returns and clears the first recorded topology-sampling
// failure, or nil when every sample since the last call succeeded.
func TakeSampleError() error {
	sampleErrMu.Lock()
	defer sampleErrMu.Unlock()
	err := sampleErr
	sampleErr = nil
	return err
}

// Point is one measured value of a series. A Point with Reps == 0 is a
// failed measurement (e.g. no connected topology was ever sampled);
// renderers show it as missing rather than as a fake zero.
type Point struct {
	X    float64 // swept parameter (network size n, unless stated)
	Mean float64 // measured mean
	CI   float64 // 99% confidence half-width
	Reps int     // replicates used; 0 marks a missing point
}

// Missing reports whether the point records a failed measurement.
func (p Point) Missing() bool { return p.Reps == 0 }

// Series is one curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Figure is a reproduced table/figure: several series over a common sweep.
type Figure struct {
	ID     string // e.g. "fig6a"
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// parallelism holds the configured worker count (0 = GOMAXPROCS), behind
// an atomic so runners and flag parsing never race.
var parallelism atomic.Int64

// Parallelism returns the worker count used by experiment runners: the
// value set with SetParallelism, or runtime.GOMAXPROCS(0) when unset.
func Parallelism() int {
	if w := int(parallelism.Load()); w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// SetParallelism configures the worker count for subsequent runs; n <= 0
// restores the GOMAXPROCS default. Runners snapshot the value once at
// start, so concurrent changes never affect a run in flight.
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	parallelism.Store(int64(n))
}

// buildWorkers holds the configured construction-stage worker count: how
// many strips, run on as many goroutines, each per-replicate construction
// layer (unit-disk sweep, coverage digest, gateway selection, MO_CDS
// selection, dynamic-backbone init) is cut into. Every layer has one
// implementation whose result is bit-identical for any strip count, so
// this knob only moves wall clock, never results.
var buildWorkers atomic.Int64

// BuildWorkers returns the configured construction-stage worker count
// (0 when unset).
func BuildWorkers() int { return int(buildWorkers.Load()) }

// SetBuildWorkers configures how many strips the construction layers are
// cut into; 0 and 1 both mean one strip on the replicate's own goroutine,
// and n < 0 restores the default 0. Like SetParallelism, runs snapshot
// the value when they touch it, so concurrent changes never tear a
// replicate.
func SetBuildWorkers(n int) {
	if n < 0 {
		n = 0
	}
	buildWorkers.Store(int64(n))
}

// SetDES does nothing. It once selected the event-calendar engines,
// which are now the only slotted-MAC and back-off engines (the wire
// protocol is counted over the production construction layers); it
// stays so existing callers compile.
func SetDES(bool) {}

// SetBatchReplication does nothing. It once opted the loss figures into
// a 64-wide bit-parallel replication path, which drew a different
// Monte-Carlo sample and did not pay; it stays so existing callers
// compile.
func SetBatchReplication(bool) {}

// effectiveBuildWorkers is the strip count construction layers actually
// use: the configured value clamped to GOMAXPROCS — goroutines beyond the
// core count cannot help a CPU-bound strip and only add handoff overhead,
// and bit-identity makes the clamp invisible in the results. 0 (unset)
// means one strip, like 1.
func effectiveBuildWorkers() int {
	return min(int(buildWorkers.Load()), runtime.GOMAXPROCS(0))
}

// forEachPoint runs fn(0..n-1) across a pool of the given worker count and
// waits for all of them. fn must write only to its own slot of any shared
// slice.
func forEachPoint(n, workers int, fn func(i int)) {
	progPoints.AddTotal(int64(n))
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
			progPoints.Step()
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
				progPoints.Step()
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// CSV renders the figure as a wide CSV table: one row per x value, one
// column pair (mean, ci) per series.
func (f *Figure) CSV() string {
	var b strings.Builder
	b.WriteString("x")
	for _, s := range f.Series {
		fmt.Fprintf(&b, ",%s,%s_ci99", s.Name, s.Name)
	}
	b.WriteString("\n")
	if len(f.Series) == 0 {
		return b.String()
	}
	for i := range f.Series[0].Points {
		fmt.Fprintf(&b, "%g", f.Series[0].Points[i].X)
		for _, s := range f.Series {
			if s.Points[i].Missing() {
				b.WriteString(",,")
			} else {
				fmt.Fprintf(&b, ",%.4f,%.4f", s.Points[i].Mean, s.Points[i].CI)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Markdown renders the figure as a GitHub-flavored table with one column
// per series (mean ± CI).
func (f *Figure) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", f.ID, f.Title)
	b.WriteString("| " + f.XLabel + " |")
	for _, s := range f.Series {
		b.WriteString(" " + s.Name + " |")
	}
	b.WriteString("\n|---|")
	for range f.Series {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	if len(f.Series) == 0 {
		return b.String()
	}
	for i := range f.Series[0].Points {
		fmt.Fprintf(&b, "| %g |", f.Series[0].Points[i].X)
		for _, s := range f.Series {
			if s.Points[i].Missing() {
				b.WriteString(" n/a |")
			} else {
				fmt.Fprintf(&b, " %.2f ± %.2f |", s.Points[i].Mean, s.Points[i].CI)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ASCIIChart renders a quick terminal plot of the figure (one character
// column per x value, series marked by letters) so figures can be eyeballed
// without leaving the terminal.
func (f *Figure) ASCIIChart(height int) string {
	if height <= 0 {
		height = 16
	}
	if len(f.Series) == 0 || len(f.Series[0].Points) == 0 {
		return "(empty figure)\n"
	}
	maxY := 0.0
	for _, s := range f.Series {
		for _, p := range s.Points {
			if p.Mean > maxY {
				maxY = p.Mean
			}
		}
	}
	if maxY == 0 {
		maxY = 1
	}
	cols := len(f.Series[0].Points)
	const colWidth = 6
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", cols*colWidth))
	}
	for si, s := range f.Series {
		mark := byte('A' + si)
		for pi, p := range s.Points {
			if p.Missing() {
				continue
			}
			row := int((p.Mean / maxY) * float64(height-1))
			if row < 0 {
				row = 0
			}
			if row >= height {
				row = height - 1
			}
			grid[height-1-row][pi*colWidth+colWidth/2] = mark
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s (max=%.1f)\n", f.ID, f.Title, maxY)
	for _, row := range grid {
		b.WriteString("  |")
		b.Write(row)
		b.WriteString("\n")
	}
	b.WriteString("  +" + strings.Repeat("-", cols*colWidth) + "\n   ")
	for _, p := range f.Series[0].Points {
		fmt.Fprintf(&b, "%-*g", colWidth, p.X)
	}
	b.WriteString("\n")
	for si, s := range f.Series {
		fmt.Fprintf(&b, "  %c = %s\n", byte('A'+si), s.Name)
	}
	return b.String()
}
