//go:build race

package topology

// raceDetector reports that the tests run under the race detector, which
// slows the sequential sampler about twentyfold.
const raceDetector = true
