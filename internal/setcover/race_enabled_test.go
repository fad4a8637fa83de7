//go:build race

package setcover

// raceEnabled reports whether the race detector instruments this build,
// whose instrumentation makes allocation counts prove nothing.
const raceEnabled = true
