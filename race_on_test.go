//go:build race

package choreo

// raceEnabled reports whether the race detector is built in; its
// instrumentation allocates, so the allocation pins skip under -race.
const raceEnabled = true
