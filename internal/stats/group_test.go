package stats

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// groupStream is series j's observation stream in the group tests: a
// deterministic function of (kind, seed, rep). Kind 0 skips about one
// replicate in seven and converges; kind 1 always skips; kind 2 is
// centred on zero, so its relative CI never closes and it stops at the
// MaxReplicates cap.
func groupStream(kind int, seed uint64) func(rep int) (float64, bool) {
	return func(rep int) (float64, bool) {
		h := seed ^ uint64(rep+1)*0x9E3779B97F4A7C15
		h ^= h >> 31
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 29
		u := float64(h>>11) / (1 << 53)
		switch kind {
		case 1:
			return 0, false
		case 2:
			return u - 0.5, true
		}
		if h%7 == 0 {
			return 0, false
		}
		return 10 + u, true
	}
}

// requests records which replicates each series was asked for.
type requests struct {
	mu   sync.Mutex
	reps [][]int
}

func (r *requests) add(j, rep int) {
	r.mu.Lock()
	r.reps[j] = append(r.reps[j], rep)
	r.mu.Unlock()
}

// sorted returns series j's requests in ascending order (workers finish
// in any order).
func (r *requests) sorted(j int) []int {
	s := slices.Clone(r.reps[j])
	slices.Sort(s)
	return s
}

// sequentialOracle is the plain replication loop: check the rule, ask for
// the next replicate, fold it. It returns the summary, the error and the
// last replicate asked for.
func sequentialOracle(rule StopRule, est func(rep int) (float64, bool)) (Summary, error, int) {
	rule = rule.normalized()
	var s Summary
	skips := 0
	for rep := 0; ; rep++ {
		if rule.Done(&s) {
			return s, nil, rep - 1
		}
		x, ok := est(rep)
		if ok {
			s.Add(x)
			continue
		}
		if skips++; skips > 10*rule.MaxReplicates {
			if s.N() == 0 {
				return s, ErrNoObservations, rep
			}
			return s, nil, rep
		}
	}
}

// TestReplicateGroupMatchesStandalone: the joint loop over k series gives
// every series the Summary, the error and the replicate requests of its
// own standalone ReplicateNWorker run, at every worker count — with
// skipping, always-skipping and capped series in the group. Both equal
// the plain sequential loop's result, and a series is asked for whole
// rounds up to the one holding the sequential loop's last replicate.
func TestReplicateGroupMatchesStandalone(t *testing.T) {
	rule := StopRule{Confidence: 0.99, RelHalfWidth: 0.01, MinReplicates: 30, MaxReplicates: 120}
	for _, k := range []int{1, 2, 5} {
		streams := make([]func(int) (float64, bool), k)
		for j := range streams {
			streams[j] = groupStream(j%3, uint64(1000*k+j))
		}
		for _, workers := range []int{1, 2, 3, 8} {
			t.Run(fmt.Sprintf("k=%d/workers=%d", k, workers), func(t *testing.T) {
				want := &requests{reps: make([][]int, k)}
				wantSums := make([]*Summary, k)
				wantErrs := make([]error, k)
				for j, obs := range streams {
					wantSums[j], wantErrs[j] = ReplicateNWorker(rule, workers, func(_, rep int) (float64, bool) {
						want.add(j, rep)
						return obs(rep)
					})
				}
				got := &requests{reps: make([][]int, k)}
				var badWorker sync.Once
				sums, errs := ReplicateGroup(rule, workers, k, func(worker, rep int, active []bool, out []Obs) {
					if worker != rep%max(workers, 1) {
						badWorker.Do(func() { t.Errorf("replicate %d ran on worker %d", rep, worker) })
					}
					for j, on := range active {
						if on {
							got.add(j, rep)
							out[j].X, out[j].OK = streams[j](rep)
						}
					}
				})
				for j := 0; j < k; j++ {
					seq, seqErr, last := sequentialOracle(rule, streams[j])
					if sums[j] != seq || errs[j] != seqErr {
						t.Errorf("series %d: summary %+v err %v, sequential loop %+v err %v", j, sums[j], errs[j], seq, seqErr)
					}
					w := max(workers, 1)
					if g := got.sorted(j); len(g) != (last/w+1)*w || g[len(g)-1] != len(g)-1 {
						t.Errorf("series %d: asked for %d replicates up to %d, want rounds of %d through replicate %d",
							j, len(g), g[len(g)-1], w, last)
					}
					if sums[j] != *wantSums[j] {
						t.Errorf("series %d: summary %+v, standalone %+v", j, sums[j], *wantSums[j])
					}
					if errs[j] != wantErrs[j] {
						t.Errorf("series %d: err %v, standalone %v", j, errs[j], wantErrs[j])
					}
					if g, w := got.sorted(j), want.sorted(j); !slices.Equal(g, w) {
						t.Errorf("series %d: asked for %d replicates, standalone %d (first difference at %d)",
							j, len(g), len(w), firstDiff(g, w))
					}
				}
				// The fixture must exercise every ending: convergence, the
				// cap and, with k >= 2, ErrNoObservations.
				if n := sums[0].N(); n < rule.MinReplicates || n >= rule.MaxReplicates {
					t.Errorf("series 0 stopped after %d observations, want convergence before the cap", n)
				}
				if k >= 2 && errs[1] != ErrNoObservations {
					t.Errorf("always-skipping series: err %v, want ErrNoObservations", errs[1])
				}
				if k >= 3 && sums[2].N() != rule.MaxReplicates {
					t.Errorf("zero-mean series: %d observations, want the cap %d", sums[2].N(), rule.MaxReplicates)
				}
			})
		}
	}
}

// firstDiff is the first index where a and b differ (or the shorter length).
func firstDiff(a, b []int) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
