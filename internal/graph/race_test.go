//go:build race

package graph

// raceDetector reports that the tests run under the race detector, whose
// sync.Pool drops entries at random, so pooled scratch reuse allocates.
const raceDetector = true
