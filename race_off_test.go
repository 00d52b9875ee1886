//go:build !race

package choreo

const raceEnabled = false
