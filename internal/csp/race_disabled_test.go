//go:build !race

package csp

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
