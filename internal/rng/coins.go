package rng

// Counter-based coins: one call produces a 64-bit coin word as a pure
// function of (seed, a, b, c) — no stream state, no consumption order — so
// a caller can key its randomness by identity instead of by draw order.
// The traffic workload derives each flow's seed this way (workload.Spec's
// FlowSeed), which keeps a flow's randomness independent of how many flows
// precede it.

// mixCoin is the splitmix64/murmur finalizer (the same mixer the fault
// oracle's scalar coins use).
func mixCoin(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

// CoinWord returns 64 independent uniform bits for the coin identity
// (seed, a, b, c).
func CoinWord(seed, a, b, c uint64) uint64 {
	h := mixCoin(seed ^ a*0x9E3779B97F4A7C15)
	h = mixCoin(h ^ b*0xFF51AFD7ED558CCD)
	h = mixCoin(h ^ c*0xC2B2AE3D27D4EB4F)
	return mixCoin(h ^ 0xD6E8FEB86659FD93)
}
