//go:build !race

package setcover

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
