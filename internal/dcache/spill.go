package dcache

import (
	"diesel/internal/spill"
	"diesel/internal/tier"
)

// SpillStats snapshots a cache's local-SSD spill tier. The zero value
// (Enabled false) means the tier is off.
type SpillStats = tier.Stats

// EnableSpill opens the local-SSD spill tier under the cache: chunks
// evicted under capacity pressure demote their payload to dir instead of
// being dropped, later reads are served from it by pread (or, for a chunk
// being swept, one verified whole-chunk read), and a process restarted
// over the same dir rewarms by scanning
// its segments — the returned Recovered says how much came back. The dir
// must be private to this cache. capacityBytes bounds the tier's on-disk
// bytes (0 = unlimited); the budget is the cache's, that is one per node
// process. Call once, before (or while) tasks use the cache; a second
// call fails.
func (s *SharedCache) EnableSpill(dir string, capacityBytes int64) (spill.Recovered, error) {
	return s.store.EnableSpill(dir, capacityBytes)
}

// SpillStats snapshots the cache's spill tier.
func (s *SharedCache) SpillStats() SpillStats { return s.store.Stats() }

// DemoteAll pushes every RAM-resident chunk down to the spill tier (no-op
// without one). A trainer that knows it is about to stop can call this so
// the *entire* working set — not just what pressure already demoted —
// survives on local SSD and the restarted task rewarms at disk bandwidth.
func (s *SharedCache) DemoteAll() { s.store.DemoteAll() }

// Close closes the cache's spill log, if any, leaving its on-disk state
// for the next incarnation, and folds its counters into the
// diesel_tier_*{site="dcache"} totals. The RAM store needs no teardown.
func (s *SharedCache) Close() { s.store.Close() }
