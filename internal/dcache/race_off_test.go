//go:build !race

package dcache

const raceEnabled = false
