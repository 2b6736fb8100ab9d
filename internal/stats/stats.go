// Package stats provides the statistical machinery behind the paper's
// evaluation methodology: descriptive statistics, Student-t confidence
// intervals, and the replication loop "repeat the simulation until the 99%
// confidence interval of the result is within ±5%".
package stats

import (
	"errors"
	"math"
	"sync"

	"clustercast/internal/obs"
)

// Replication metrics: observations folded into summaries and replicates
// skipped (discarded disconnected topologies). Incremented once per
// replicate, so the disabled cost is one atomic load per replicate.
var (
	mObservations = obs.NewCounter("replicate.observations")
	mSkips        = obs.NewCounter("replicate.skips")
	// progReplicates feeds the live telemetry layer a replicate-level
	// completion rate. The adaptive stopping rule makes the total unknown
	// up front, so heartbeat views report done/rate with ETA -1.
	progReplicates = obs.NewProgress("replicate")
)

// Summary holds running moments of a sample (Welford's algorithm, so a
// million replicates cost O(1) memory and stay numerically stable).
type Summary struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean (0 for an empty summary).
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest observation (NaN for an empty summary — a 0
// would be indistinguishable from a genuine 0 observation, e.g. when every
// replicate of a point was skipped).
func (s *Summary) Min() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the largest observation (NaN for an empty summary, like Min).
func (s *Summary) Max() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.max
}

// Variance returns the unbiased sample variance (0 when n < 2).
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// StdErr returns the standard error of the mean.
func (s *Summary) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// CI returns the half-width of the two-sided confidence interval for the
// mean at the given confidence level (e.g. 0.99), using the Student-t
// distribution with n−1 degrees of freedom. It returns +Inf when n < 2.
func (s *Summary) CI(confidence float64) float64 {
	if s.n < 2 {
		return math.Inf(1)
	}
	t := TQuantile(1-(1-confidence)/2, s.n-1)
	return t * s.StdErr()
}

// lgamma returns log Γ(x) for x > 0.
func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// betaIncReg computes the regularized incomplete beta function I_x(a, b)
// by the continued-fraction expansion (Lentz's method), following the
// classic Numerical Recipes formulation.
func betaIncReg(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b) + a*math.Log(x) + b*math.Log(1-x)
	front := math.Exp(lbeta)
	// Use the symmetry relation to keep the continued fraction convergent.
	if x > (a+1)/(a+b+2) {
		return 1 - betaIncReg(b, a, 1-x)
	}
	const (
		maxIter = 500
		eps     = 1e-14
		tiny    = 1e-300
	)
	c := 1.0
	d := 1 - (a+b)*x/(a+1)
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		// Even step.
		num := fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm))
		d = 1 + num*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		d = 1 / d
		c = 1 + num/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		h *= d * c
		// Odd step.
		num = -(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1))
		d = 1 + num*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		d = 1 / d
		c = 1 + num/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return front * h / a
}

// tCDF is the cumulative distribution function of Student's t with df
// degrees of freedom.
func tCDF(t float64, df int) float64 {
	if df <= 0 {
		panic("stats: non-positive degrees of freedom")
	}
	v := float64(df)
	x := v / (v + t*t)
	p := 0.5 * betaIncReg(v/2, 0.5, x)
	if t > 0 {
		return 1 - p
	}
	return p
}

// TQuantile returns the p-quantile (0 < p < 1) of Student's t distribution
// with df degrees of freedom, by bisection on the CDF. Accuracy ~1e-10,
// plenty for confidence intervals.
func TQuantile(p float64, df int) float64 {
	if p <= 0 || p >= 1 {
		panic("stats: quantile probability out of (0,1)")
	}
	if p == 0.5 {
		return 0
	}
	if p < 0.5 {
		return -TQuantile(1-p, df)
	}
	lo, hi := 0.0, 2.0
	for tCDF(hi, df) < p {
		hi *= 2
		if hi > 1e12 {
			break
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if tCDF(mid, df) < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12*(1+hi) {
			break
		}
	}
	return (lo + hi) / 2
}

// StopRule is the paper's replication stopping rule.
type StopRule struct {
	// Confidence of the interval (paper: 0.99).
	Confidence float64
	// RelHalfWidth is the target half-width relative to the mean
	// (paper: 0.05).
	RelHalfWidth float64
	// MinReplicates guards against lucky early stops (default 30).
	MinReplicates int
	// MaxReplicates bounds runtime (default 10000).
	MaxReplicates int
}

// PaperRule returns the rule used throughout the paper's simulations:
// replicate until the 99% CI is within ±5% of the mean.
func PaperRule() StopRule {
	return StopRule{Confidence: 0.99, RelHalfWidth: 0.05}
}

// normalized fills defaults.
func (r StopRule) normalized() StopRule {
	if r.Confidence == 0 {
		r.Confidence = 0.99
	}
	if r.RelHalfWidth == 0 {
		r.RelHalfWidth = 0.05
	}
	if r.MinReplicates == 0 {
		r.MinReplicates = 30
	}
	if r.MaxReplicates == 0 {
		r.MaxReplicates = 10000
	}
	return r
}

// Done reports whether the summary satisfies the rule.
func (r StopRule) Done(s *Summary) bool {
	r = r.normalized()
	if s.N() < r.MinReplicates {
		return false
	}
	if s.N() >= r.MaxReplicates {
		return true
	}
	mean := math.Abs(s.Mean())
	if mean == 0 {
		// A degenerate all-zero sample: the CI half-width is 0 too, and
		// the relative criterion is vacuously met.
		return s.CI(r.Confidence) == 0
	}
	// The t quantile exceeds the normal quantile z for every finite df,
	// and zLo sits z·1e-6 below z, far outside TQuantile's 1e-12
	// tolerance. Rounded multiplication is monotone, so zLo·se above the
	// target means t·se is too: the rule cannot be met, and the bisection
	// behind CI is skipped with the decision unchanged.
	zLo := math.Sqrt2 * math.Erfinv(r.Confidence) * (1 - 1e-6)
	target := r.RelHalfWidth * mean
	if zLo*s.StdErr() > target {
		return false
	}
	return s.CI(r.Confidence) <= target
}

// ErrNoObservations is returned by Replicate when the estimator never
// produces a value.
var ErrNoObservations = errors.New("stats: estimator produced no observations")

// Replicate drives an estimator until the stopping rule is met. The
// estimator receives the replicate index and returns one observation and
// ok=false to skip (e.g. a discarded disconnected topology — skips do not
// count toward the replicate budget beyond a 10× safety factor).
func Replicate(rule StopRule, estimator func(rep int) (float64, bool)) (*Summary, error) {
	return ReplicateN(rule, 1, estimator)
}

// skip applies ReplicateGroup's skip-budget bookkeeping: too many skipped
// replicates end the run, with ErrNoObservations when nothing was ever
// observed.
func skip(rule StopRule, s *Summary, skips *int) (bool, error) {
	if *skips > 10*rule.MaxReplicates {
		if s.N() == 0 {
			return true, ErrNoObservations
		}
		return true, nil
	}
	return false, nil
}

// ReplicateN is Replicate with speculative parallel batches: replicates
// [k, k+workers) run concurrently, then their observations are folded
// strictly in replicate order, re-checking the stopping rule before each —
// exactly the schedule of the sequential loop. Because the estimator must
// derive any randomness from the replicate index alone (true for the
// experiment package's seeding discipline, and required for Replicate to be
// reproducible in the first place), the resulting Summary is bit-identical
// to Replicate's for every worker count; parallelism only changes how many
// speculative replicates past the stop point are computed and discarded
// (at most workers−1).
func ReplicateN(rule StopRule, workers int, estimator func(rep int) (float64, bool)) (*Summary, error) {
	return ReplicateNWorker(rule, workers, func(_, rep int) (float64, bool) {
		return estimator(rep)
	})
}

// ReplicateNWorker is ReplicateN for estimators that reuse per-worker
// state: the estimator additionally receives a stable worker index in
// [0, workers) — replicate rep always runs on worker rep % workers — so
// each worker can keep one workspace and the schedule stays deterministic.
// The sequential path (workers <= 1) always passes worker 0. It is the
// one-series case of ReplicateGroup.
func ReplicateNWorker(rule StopRule, workers int, estimator func(worker, rep int) (float64, bool)) (*Summary, error) {
	sums, errs := ReplicateGroup(rule, workers, 1, func(worker, rep int, _ []bool, out []Obs) {
		out[0].X, out[0].OK = estimator(worker, rep)
	})
	return &sums[0], errs[0]
}

// Obs is one series' outcome of one replicate: the observation X, or a
// skip (a discarded replicate) when OK is false.
type Obs struct {
	X  float64
	OK bool
}

// ReplicateGroup drives k series over one shared replicate stream, each
// until it meets the stopping rule. Replicates run in rounds of
// max(workers, 1) consecutive indices, replicate rep on worker
// rep % workers. The estimator is called once per replicate with the
// series still replicating when its round started (active[j]) and must
// fill out[j] for every active j. Each series then folds the round's
// outcomes in replicate order, re-checking the rule before each, with its
// own skip budget. So series j is asked for exactly the replicates, and
// folds exactly the observations, of a standalone ReplicateNWorker over
// it alone at the same worker count: sums[j] and errs[j] are
// bit-identical to that run's, and errs[j] is ErrNoObservations when the
// series skipped past its budget without observing.
//
// With workers > 1 the rounds run on a persistent pool, spawned once,
// fed one replicate index per round over per-worker channels and released
// on return, so the steady-state loop does not allocate (see
// TestReplicateNWorkerPooledAllocs). Workers read active, and write only
// their own stripe of the outcome buffer, while the loop waits.
func ReplicateGroup(rule StopRule, workers, k int, estimator func(worker, rep int, active []bool, out []Obs)) ([]Summary, []error) {
	rule = rule.normalized()
	workers = max(workers, 1)
	sums := make([]Summary, k)
	errs := make([]error, k)
	skips := make([]int, k)
	active := make([]bool, k)
	for j := range active {
		active[j] = true
	}
	out := make([]Obs, workers*k)
	// round computes the outcomes of replicates [next, next+workers).
	round := func(next int) { estimator(0, next, active, out) }
	if workers > 1 {
		feed := make([]chan int, workers)
		var wg sync.WaitGroup
		for i := range feed {
			feed[i] = make(chan int, 1)
			go func(i int) {
				for rep := range feed[i] {
					estimator(i, rep, active, out[i*k:(i+1)*k])
					wg.Done()
				}
			}(i)
		}
		defer func() {
			for _, ch := range feed {
				close(ch)
			}
		}()
		round = func(next int) {
			wg.Add(workers)
			for i, ch := range feed {
				ch <- next + i
			}
			wg.Wait()
		}
	}
	for next := 0; ; next += workers {
		live := false
		for j := range active {
			if active[j] && rule.Done(&sums[j]) {
				active[j] = false
			}
			live = live || active[j]
		}
		if !live {
			return sums, errs
		}
		round(next)
		for i := 0; i < workers; i++ {
			for j := range active {
				// Fold 0 sees the summary the round start just checked.
				if !active[j] || i > 0 && rule.Done(&sums[j]) {
					active[j] = false
					continue
				}
				if o := out[i*k+j]; o.OK {
					sums[j].Add(o.X)
					mObservations.Inc()
					progReplicates.Step()
					continue
				}
				skips[j]++
				mSkips.Inc()
				if stop, err := skip(rule, &sums[j], &skips[j]); stop {
					active[j], errs[j] = false, err
				}
			}
		}
	}
}
