//go:build !race

package cq_test

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
