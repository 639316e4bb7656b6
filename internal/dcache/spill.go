package dcache

import (
	"strings"

	"diesel/internal/spill"
	"diesel/internal/tier"
)

// SpillStats snapshots a master's local-SSD spill tier. The zero value
// (Enabled false) means the tier is off.
type SpillStats = tier.Stats

// newStore builds a master-side chunk store: internal/tier over whole
// chunk payloads, keyed and accounted by dataset ("dataset\x00chunkID",
// see Peer.storeKeys), reporting into the diesel_tier_*{site="dcache"}
// series.
func newStore(capacityBytes int64) *tier.Store {
	s := tier.New(capacityBytes, func(key string) string {
		ds, _, _ := strings.Cut(key, "\x00")
		return ds
	})
	tierSite.Add(s)
	return s
}

// SpillStats snapshots this master's spill tier (zero value on workers
// and masters without one).
func (p *Peer) SpillStats() SpillStats {
	if p.store == nil {
		return SpillStats{}
	}
	return p.store.Stats()
}

// Rewarmed reports what the spill manifest replayed when this peer
// joined: how much of a previous incarnation's cache came back from
// local disk instead of the server tier (the Fig. 11b recovery story at
// the cache layer). Zero when the peer opened no spill log.
func (p *Peer) Rewarmed() (chunks int, bytes int64) {
	return p.rewarmed.Entries, p.rewarmed.Bytes
}

// DemoteAll pushes every RAM-resident chunk on this master down to the
// spill tier (no-op without one). A trainer that knows it is about to
// stop can call this so the *entire* working set — not just what
// pressure already demoted — survives on local SSD and the restarted
// task rewarms at disk bandwidth.
func (p *Peer) DemoteAll() {
	if p.store != nil {
		p.store.DemoteAll()
	}
}

// EnableSpill opens the local-SSD spill tier under the shared cache:
// chunks evicted under capacity pressure demote their payload to dir
// instead of being dropped, and a process restarted over the same dir
// rewarms from the manifest. capacityBytes bounds the tier's on-disk
// bytes (0 = unlimited). Call once, before (or while) tasks use the
// cache; a second call fails.
func (s *SharedCache) EnableSpill(dir string, capacityBytes int64) (spill.Recovered, error) {
	return s.store.EnableSpill(dir, capacityBytes)
}

// SpillStats snapshots the shared cache's spill tier.
func (s *SharedCache) SpillStats() SpillStats { return s.store.Stats() }

// Close closes the shared cache's spill log, if any, leaving its on-disk
// state for the next incarnation. The RAM store needs no teardown.
func (s *SharedCache) Close() { s.store.Close() }
