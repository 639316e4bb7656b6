//go:build race

package testkit

const raceEnabled = true
