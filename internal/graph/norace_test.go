//go:build !race

package graph

// raceDetector reports that the tests run under the race detector.
const raceDetector = false
