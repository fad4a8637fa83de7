//go:build !race

package cover

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
