//go:build !race

package afsa

const raceEnabled = false
