package stats

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"clustercast/internal/rng"
)

func TestSummaryBasics(t *testing.T) {
	s := &Summary{}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Fatalf("Mean = %g", s.Mean())
	}
	// Sample variance of the classic dataset = 32/7.
	if math.Abs(s.Variance()-32.0/7) > 1e-12 {
		t.Fatalf("Variance = %g, want %g", s.Variance(), 32.0/7)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("Min/Max = %g/%g", s.Min(), s.Max())
	}
}

func TestSummaryEmptyAndSingle(t *testing.T) {
	s := &Summary{}
	if s.Mean() != 0 || s.Variance() != 0 || s.StdErr() != 0 {
		t.Fatal("empty summary should be all zeros")
	}
	if !math.IsInf(s.CI(0.99), 1) {
		t.Fatal("CI of empty summary must be +Inf")
	}
	s.Add(3)
	if s.Mean() != 3 || s.Variance() != 0 {
		t.Fatal("single observation stats wrong")
	}
	if !math.IsInf(s.CI(0.99), 1) {
		t.Fatal("CI with one observation must be +Inf")
	}
}

// TestTQuantileKnownValues checks against standard t-table values
// (two-sided 99% → p = 0.995).
func TestTQuantileKnownValues(t *testing.T) {
	cases := []struct {
		p    float64
		df   int
		want float64
		tol  float64
	}{
		{0.995, 1, 63.657, 0.01},
		{0.995, 2, 9.925, 0.005},
		{0.995, 10, 3.169, 0.005},
		{0.995, 30, 2.750, 0.005},
		{0.995, 100, 2.626, 0.005},
		{0.975, 10, 2.228, 0.005},
		{0.975, 30, 2.042, 0.005},
		{0.95, 5, 2.015, 0.005},
		{0.90, 20, 1.325, 0.005},
	}
	for _, c := range cases {
		got := TQuantile(c.p, c.df)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("TQuantile(%g, %d) = %.4f, want %.3f", c.p, c.df, got, c.want)
		}
	}
}

func TestTQuantileSymmetry(t *testing.T) {
	for _, df := range []int{1, 5, 50} {
		if got := TQuantile(0.5, df); got != 0 {
			t.Fatalf("median of t(%d) = %g, want 0", df, got)
		}
		a := TQuantile(0.9, df)
		b := TQuantile(0.1, df)
		if math.Abs(a+b) > 1e-9 {
			t.Fatalf("t(%d) quantiles not symmetric: %g vs %g", df, a, b)
		}
	}
}

func TestTQuantileApproachesNormal(t *testing.T) {
	// For large df the t quantile approaches the standard normal 2.5758
	// (p=0.995).
	got := TQuantile(0.995, 100000)
	if math.Abs(got-2.5758) > 0.002 {
		t.Fatalf("t(∞) 0.995 quantile = %.4f, want ≈2.5758", got)
	}
}

func TestTQuantilePanics(t *testing.T) {
	for _, p := range []float64{0, 1, -0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("TQuantile(%g, 5) must panic", p)
				}
			}()
			TQuantile(p, 5)
		}()
	}
}

func TestBetaIncRegBounds(t *testing.T) {
	if betaIncReg(2, 3, 0) != 0 || betaIncReg(2, 3, 1) != 1 {
		t.Fatal("betaIncReg boundary values wrong")
	}
	// I_x(1,1) = x (uniform distribution).
	for _, x := range []float64{0.1, 0.35, 0.5, 0.9} {
		if got := betaIncReg(1, 1, x); math.Abs(got-x) > 1e-12 {
			t.Fatalf("I_%g(1,1) = %g", x, got)
		}
	}
	// I_x(1/2,1/2) = (2/π) arcsin(√x).
	for _, x := range []float64{0.2, 0.5, 0.8} {
		want := 2 / math.Pi * math.Asin(math.Sqrt(x))
		if got := betaIncReg(0.5, 0.5, x); math.Abs(got-want) > 1e-10 {
			t.Fatalf("I_%g(.5,.5) = %g, want %g", x, got, want)
		}
	}
}

func TestCIShrinksWithN(t *testing.T) {
	r := rng.New(7)
	s := &Summary{}
	var prev float64 = math.Inf(1)
	for _, n := range []int{10, 100, 1000} {
		for s.N() < n {
			s.Add(10 + r.NormFloat64())
		}
		ci := s.CI(0.99)
		if ci >= prev {
			t.Fatalf("CI did not shrink: %g -> %g at n=%d", prev, ci, n)
		}
		prev = ci
	}
}

func TestStopRuleDone(t *testing.T) {
	rule := PaperRule()
	s := &Summary{}
	if rule.Done(s) {
		t.Fatal("empty summary cannot be done")
	}
	// Constant observations: done as soon as MinReplicates reached.
	for i := 0; i < 29; i++ {
		s.Add(5)
	}
	if rule.Done(s) {
		t.Fatal("must not stop before MinReplicates")
	}
	s.Add(5)
	if !rule.Done(s) {
		t.Fatal("constant sample at MinReplicates must stop")
	}
}

func TestStopRuleZeroMean(t *testing.T) {
	rule := PaperRule()
	s := &Summary{}
	for i := 0; i < 30; i++ {
		s.Add(0)
	}
	if !rule.Done(s) {
		t.Fatal("all-zero sample must stop (degenerate case)")
	}
	// Zero mean with variance: never satisfies the relative rule until
	// MaxReplicates.
	s2 := &Summary{}
	for i := 0; i < 40; i++ {
		if i%2 == 0 {
			s2.Add(1)
		} else {
			s2.Add(-1)
		}
	}
	if rule.Done(s2) {
		t.Fatal("zero-mean noisy sample must not stop early")
	}
}

func TestStopRuleMaxReplicates(t *testing.T) {
	rule := StopRule{Confidence: 0.99, RelHalfWidth: 1e-9, MaxReplicates: 50}
	s := &Summary{}
	r := rng.New(3)
	for i := 0; i < 50; i++ {
		s.Add(r.NormFloat64())
	}
	if !rule.Done(s) {
		t.Fatal("must stop at MaxReplicates")
	}
}

func TestReplicateConverges(t *testing.T) {
	r := rng.New(11)
	s, err := Replicate(PaperRule(), func(rep int) (float64, bool) {
		return 20 + r.NormFloat64(), true
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.N() < 30 {
		t.Fatalf("stopped after only %d replicates", s.N())
	}
	if math.Abs(s.Mean()-20) > 1 {
		t.Fatalf("mean %g far from 20", s.Mean())
	}
	// The stopping criterion must actually hold.
	if s.CI(0.99) > 0.05*s.Mean()+1e-9 {
		t.Fatalf("CI %g exceeds 5%% of mean %g", s.CI(0.99), s.Mean())
	}
}

func TestReplicateSkips(t *testing.T) {
	r := rng.New(13)
	calls := 0
	s, err := Replicate(PaperRule(), func(rep int) (float64, bool) {
		calls++
		if calls%3 == 0 {
			return 0, false // every third topology "disconnected"
		}
		return 10 + r.NormFloat64()*0.1, true
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.N() < 30 {
		t.Fatalf("only %d accepted replicates", s.N())
	}
}

func TestReplicateAllSkipped(t *testing.T) {
	rule := StopRule{MaxReplicates: 5}
	_, err := Replicate(rule, func(rep int) (float64, bool) { return 0, false })
	if err != ErrNoObservations {
		t.Fatalf("want ErrNoObservations, got %v", err)
	}
}

// Property: Welford summary matches the naive two-pass computation.
func TestQuickWelfordMatchesNaive(t *testing.T) {
	f := func(seed uint64, sz uint8) bool {
		n := int(sz)%50 + 2
		r := rng.New(seed)
		xs := make([]float64, n)
		s := &Summary{}
		for i := range xs {
			xs[i] = r.Range(-100, 100)
			s.Add(xs[i])
		}
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(n)
		variance := 0.0
		for _, x := range xs {
			variance += (x - mean) * (x - mean)
		}
		variance /= float64(n - 1)
		return math.Abs(s.Mean()-mean) < 1e-9 && math.Abs(s.Variance()-variance) < 1e-7
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: tCDF is monotone and maps quantiles back correctly.
func TestQuickQuantileRoundTrip(t *testing.T) {
	f := func(pRaw uint16, dfRaw uint8) bool {
		p := 0.01 + 0.98*float64(pRaw)/65535
		df := int(dfRaw)%120 + 1
		q := TQuantile(p, df)
		back := tCDF(q, df)
		return math.Abs(back-p) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestStopRuleEarlyOutExact checks that Done, which skips the t quantile
// when the normal bound already fails, decides exactly like the plain
// predicate CI(c) <= rel·|mean| — on random summaries, on summaries within
// 1e-9 of the t threshold and of the early-out's own threshold, and on
// NaN and zero-mean samples.
func TestStopRuleEarlyOutExact(t *testing.T) {
	plain := func(r StopRule, s *Summary) bool {
		mean := math.Abs(s.Mean())
		if mean == 0 {
			return s.CI(r.Confidence) == 0
		}
		return s.CI(r.Confidence) <= r.RelHalfWidth*mean
	}
	r := rng.New(2003)
	checked := [2]int{}
	for i := 0; i < 4000; i++ {
		conf := []float64{0.9, 0.95, 0.99, 0.999}[i%4]
		rule := StopRule{Confidence: conf, RelHalfWidth: r.Range(0.001, 0.3), MinReplicates: 2, MaxReplicates: 1 << 30}
		n := 2 + r.Intn(9999)
		mean := r.Range(-100, 100)
		// The standard error that puts the half-width exactly on the target
		// under the t quantile (k=0) or under the early-out's bound (k=1).
		z := math.Sqrt2 * math.Erfinv(conf)
		q := []float64{TQuantile(1-(1-conf)/2, n-1), z * (1 - 1e-6)}[i/4%2]
		se := rule.RelHalfWidth * math.Abs(mean) / q
		switch i / 8 % 5 {
		case 0: // anywhere: a tenth to ten times the threshold
			se *= math.Exp(r.Range(-2.3, 2.3))
		case 1: // within 1e-9 of the threshold
			se *= 1 + r.Range(-1e-9, 1e-9)
		case 2: // a NaN in the sample
			if r.Bool(0.5) {
				mean = math.NaN()
			} else {
				se = math.NaN()
			}
		case 3: // zero mean, with and without spread
			mean = 0
			if r.Bool(0.5) {
				se = 0
			}
		}
		s := &Summary{n: n, mean: mean, m2: se * se * float64(n) * float64(n-1)}
		got, want := rule.Done(s), plain(rule, s)
		if got != want {
			t.Fatalf("conf=%g rel=%g n=%d mean=%g m2=%g: Done=%v, plain predicate %v",
				conf, rule.RelHalfWidth, n, s.mean, s.m2, got, want)
		}
		if got {
			checked[1]++
		} else {
			checked[0]++
		}
	}
	if checked[0] == 0 || checked[1] == 0 {
		t.Fatalf("decisions not mixed: %d not done, %d done", checked[0], checked[1])
	}
}

func BenchmarkTQuantile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = TQuantile(0.995, 30+i%100)
	}
}

func TestReplicateDeterministicAcrossRuns(t *testing.T) {
	run := func() (float64, int) {
		r := rng.New(99)
		s, err := Replicate(PaperRule(), func(rep int) (float64, bool) {
			return 5 + r.NormFloat64()*0.2, true
		})
		if err != nil {
			t.Fatal(err)
		}
		return s.Mean(), s.N()
	}
	m1, n1 := run()
	m2, n2 := run()
	if m1 != m2 || n1 != n2 {
		t.Fatalf("replication not deterministic: (%g,%d) vs (%g,%d)", m1, n1, m2, n2)
	}
}

// deterministicEstimator returns an estimator whose observation for rep
// depends only on rep (the contract ReplicateN requires), with a skip
// pattern thrown in.
func deterministicEstimator(seed uint64) func(rep int) (float64, bool) {
	return func(rep int) (float64, bool) {
		h := seed ^ uint64(rep)*0x9E3779B97F4A7C15
		h ^= h >> 33
		h *= 0xFF51AFD7ED558CCD
		h ^= h >> 33
		if h%7 == 0 {
			return 0, false // deterministic skip
		}
		return 10 + float64(h%1000)/100, true
	}
}

// TestReplicateNMatchesSequential is the core determinism guarantee of the
// batched replication: for any worker count the resulting Summary is
// bit-identical to the sequential loop's.
func TestReplicateNMatchesSequential(t *testing.T) {
	rule := StopRule{Confidence: 0.99, RelHalfWidth: 0.05, MinReplicates: 30, MaxReplicates: 500}
	for _, seed := range []uint64{1, 42, 987654321} {
		want, err := Replicate(rule, deterministicEstimator(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1, 2, 3, 8, 64} {
			got, err := ReplicateN(rule, workers, deterministicEstimator(seed))
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if *got != *want {
				t.Fatalf("seed %d workers %d: summary diverged: %+v != %+v",
					seed, workers, got, want)
			}
		}
	}
}

// TestReplicateNAllSkipped mirrors TestReplicateAllSkipped for the batched
// path: an estimator that never produces a value ends with ErrNoObservations.
func TestReplicateNAllSkipped(t *testing.T) {
	rule := StopRule{MaxReplicates: 5}
	s, err := ReplicateN(rule, 4, func(rep int) (float64, bool) { return 0, false })
	if err != ErrNoObservations {
		t.Fatalf("err = %v, want ErrNoObservations", err)
	}
	if s.N() != 0 {
		t.Fatalf("N = %d, want 0", s.N())
	}
}

// TestReplicateNSpeculationBound pins the documented cost of speculation:
// no replicate index beyond the sequential stop point plus workers−1 is
// ever evaluated.
func TestReplicateNSpeculationBound(t *testing.T) {
	rule := StopRule{Confidence: 0.99, RelHalfWidth: 0.05, MinReplicates: 30, MaxReplicates: 100}
	// Sequential: find the largest rep the plain loop consults.
	maxSeq := -1
	if _, err := Replicate(rule, func(rep int) (float64, bool) {
		if rep > maxSeq {
			maxSeq = rep
		}
		return deterministicEstimator(3)(rep)
	}); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var mu sync.Mutex
	maxPar := -1
	if _, err := ReplicateN(rule, workers, func(rep int) (float64, bool) {
		mu.Lock()
		if rep > maxPar {
			maxPar = rep
		}
		mu.Unlock()
		return deterministicEstimator(3)(rep)
	}); err != nil {
		t.Fatal(err)
	}
	// The batched run dispatches full batches, so it may look at up to
	// workers−1 indices past the last batch containing the stop point.
	limit := (maxSeq/workers+1)*workers - 1
	if maxPar > limit {
		t.Fatalf("speculation ran to rep %d, sequential stopped at %d (limit %d)",
			maxPar, maxSeq, limit)
	}
}

// repValue is a deterministic pseudo-observation for replicate rep: a
// fixed-point hash in [0.5, 1.5) so means stay away from zero and the rule
// terminates.
func repValue(rep int) float64 {
	h := uint64(rep+1) * 0x9E3779B97F4A7C15
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return 0.5 + float64(h>>11)/(1<<53)
}

// repOK skips roughly one replicate in seven.
func repOK(rep int) bool {
	return (uint64(rep+1)*0xFF51AFD7ED558CCD>>33)%7 != 0
}

// summariesEqual compares every exported moment exactly: bit-identity is
// the contract.
func summariesEqual(a, b *Summary) bool {
	if a.N() != b.N() || a.Mean() != b.Mean() || a.Variance() != b.Variance() {
		return false
	}
	if a.N() == 0 {
		return true
	}
	return a.Min() == b.Min() && a.Max() == b.Max()
}

// TestReplicateNWorkerPooledAllocs is the worker-pool regression gate: the
// per-round goroutine spawn is gone, so allocations are a constant of the
// pool, not of the round count. The old implementation allocated at least
// one goroutine per worker per round (hundreds of allocations across the
// extra rounds measured here).
func TestReplicateNWorkerPooledAllocs(t *testing.T) {
	const workers = 4
	est := func(worker, rep int) (float64, bool) { return repValue(rep), true }
	run := func(reps int) func() {
		rule := StopRule{MinReplicates: reps, MaxReplicates: reps}
		return func() {
			if _, err := ReplicateNWorker(rule, workers, est); err != nil {
				t.Fatal(err)
			}
		}
	}
	short := testing.AllocsPerRun(10, run(8*workers))
	long := testing.AllocsPerRun(10, run(200*workers))
	// 192 extra rounds; the old spawn-per-round loop cost ≥ workers allocs
	// per round. Allow a little scheduler noise, nothing near that.
	if long > short+24 {
		t.Errorf("allocs grow with round count: %v for %d rounds vs %v for %d rounds",
			long, 200, short, 8)
	}
}

// TestReplicateNWorkerPoolStillExact: the pooled rewrite keeps the
// bit-identical-to-sequential contract.
func TestReplicateNWorkerPoolStillExact(t *testing.T) {
	rule := StopRule{MinReplicates: 50, MaxReplicates: 500}
	want, err := Replicate(rule, func(rep int) (float64, bool) { return repValue(rep), repOK(rep) })
	if err != nil {
		t.Fatal(err)
	}
	for workers := 2; workers <= 8; workers++ {
		got, err := ReplicateNWorker(rule, workers, func(_, rep int) (float64, bool) {
			return repValue(rep), repOK(rep)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !summariesEqual(got, want) {
			t.Errorf("workers=%d: pooled summary differs from sequential", workers)
		}
	}
}
