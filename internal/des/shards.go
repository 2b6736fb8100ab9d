package des

import (
	"sync"
	"sync/atomic"
)

// Shards cuts the index space 0..n−1 of a per-node or per-head loop into
// contiguous strips for the sharded construction stages. Each strip writes
// only state it owns, so a loop's result does not depend on the strip
// count; the strip count only decides how many goroutines share the work.
//
// The zero value is ready for ResetRange.
type Shards struct {
	n, k int
	next atomic.Int64
}

// K returns the strip count.
func (sh *Shards) K() int { return sh.k }

// ResetRange cuts 0..n−1 into k contiguous, ascending strips whose sizes
// differ by at most one, clamping k to [1, max(n, 1)].
func (sh *Shards) ResetRange(n, k int) {
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	sh.n, sh.k = n, k
}

// Range returns the interval [lo, hi) of strip s.
func (sh *Shards) Range(s int) (lo, hi int) {
	n, k := sh.n, sh.k
	return (s*n + k - 1) / k, ((s+1)*n + k - 1) / k
}

// Each runs f(0..K−1) on min(workers, K) goroutines (at least one)
// claiming strips from a shared counter, and returns when every strip is
// done. A caller with a single strip calls its strip function directly
// instead, on its own goroutine and without building a closure for it.
func (sh *Shards) Each(workers int, f func(s int)) {
	k := sh.k
	workers = max(1, min(workers, k))
	sh.next.Store(0)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := int(sh.next.Add(1)) - 1
				if s >= k {
					return
				}
				f(s)
			}
		}()
	}
	wg.Wait()
}
