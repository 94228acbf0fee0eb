//go:build !race

package core

// raceEnabled is true when the tests run under the race detector, which
// slows the analysis several-fold; the heaviest golden tests then check
// a subset of their rows.
const raceEnabled = false
