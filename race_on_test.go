//go:build race

package diesel

// raceEnabled: the race detector drops a quarter of sync.Pool puts at
// random, so allocation budgets that rest on pooled buffers get a margin.
const raceEnabled = true
