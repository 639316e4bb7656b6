//go:build !race

package diesel

const raceEnabled = false
