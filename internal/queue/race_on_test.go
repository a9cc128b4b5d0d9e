//go:build race

package queue

// raceEnabled reports whether the race detector instruments this build;
// allocation-regression gates skip under it, since the instrumentation
// itself allocates.
const raceEnabled = true
