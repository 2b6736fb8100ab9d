//go:build !race

package topology

// raceDetector reports that the tests run under the race detector.
const raceDetector = false
