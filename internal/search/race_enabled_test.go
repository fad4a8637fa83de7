//go:build race

package search

// raceEnabled reports whether the race detector instruments this build.
// Under it sync.Pool drops items at random, so pooled scratch is not
// reused reliably and allocation counts prove nothing.
const raceEnabled = true
