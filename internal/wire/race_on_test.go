//go:build race

package wire

// raceEnabled: the race detector drops a quarter of sync.Pool puts at
// random, so allocation counts that rest on pooled items vary.
const raceEnabled = true
