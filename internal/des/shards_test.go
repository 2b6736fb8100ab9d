package des

import (
	"sync/atomic"
	"testing"
)

// TestShardPartitions pins the strip partition: for every (n, k) the
// strips are contiguous and ascending, cover 0..n−1, and differ in size by
// at most one; Each visits every strip exactly once for any worker count.
func TestShardPartitions(t *testing.T) {
	var sh Shards
	for _, n := range []int{0, 1, 7, 100, 257} {
		for _, k := range []int{-1, 0, 1, 3, 7, 8, 300} {
			sh.ResetRange(n, k)
			want := min(max(k, 1), max(n, 1))
			if sh.K() != want {
				t.Fatalf("n=%d k=%d: K() = %d, want %d", n, k, sh.K(), want)
			}
			next, small, large := 0, n, 0
			for s := 0; s < sh.K(); s++ {
				lo, hi := sh.Range(s)
				if lo != next || hi < lo {
					t.Fatalf("n=%d k=%d: strip %d = [%d, %d), want to start at %d", n, k, s, lo, hi, next)
				}
				next = hi
				small, large = min(small, hi-lo), max(large, hi-lo)
			}
			if next != n {
				t.Fatalf("n=%d k=%d: strips end at %d, want %d", n, k, next, n)
			}
			if large-small > 1 {
				t.Fatalf("n=%d k=%d: strip sizes range %d..%d", n, k, small, large)
			}
			for _, workers := range []int{0, 1, 3, 8} {
				visits := make([]atomic.Int32, sh.K())
				sh.Each(workers, func(s int) { visits[s].Add(1) })
				for s := range visits {
					if c := visits[s].Load(); c != 1 {
						t.Fatalf("n=%d k=%d workers=%d: strip %d ran %d times", n, k, workers, s, c)
					}
				}
			}
		}
	}
}
