//go:build race

package cq_test

// raceEnabled reports whether the race detector instruments this build.
// Instrumentation slows the kernels roughly fivefold, so exact-count
// checks that gain nothing from it skip themselves.
const raceEnabled = true
