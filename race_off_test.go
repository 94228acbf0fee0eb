//go:build !race

package deepmc_test

// raceEnabled is true when the tests run under the race detector, which
// changes what allocates; allocation bounds are then skipped.
const raceEnabled = false
