package rng

import (
	"math"
	"math/bits"
	"testing"
)

// TestCoinWordFair: CoinWord bits are fair coins.
func TestCoinWordFair(t *testing.T) {
	const trials = 20000
	total := 0
	for i := 0; i < trials; i++ {
		total += bits.OnesCount64(CoinWord(5, uint64(i), 7, 9))
	}
	got := float64(total) / (64 * trials)
	if math.Abs(got-0.5) > 0.01 {
		t.Errorf("fair-coin rate %g", got)
	}
}
