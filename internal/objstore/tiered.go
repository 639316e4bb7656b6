package objstore

import (
	"strings"
	"sync/atomic"

	"diesel/internal/obs"
	"diesel/internal/spill"
	"diesel/internal/tier"
)

// Tiered layers a bounded fast tier (SSD) over a slow store (HDD),
// implementing the DIESEL server cache of Figure 4: reads check the fast
// tier first; on a miss the object is served from the slow tier and
// promoted, evicting least-recently-used objects when the fast tier's
// capacity is exceeded. Writes go to the slow tier (the durable home) and
// the fast tier is populated only by reads, matching a cache — not a
// write buffer.
//
// The fast tier is an internal/tier store — the same RAM → local-disk
// spill stack the dcache masters use, one level down the storage
// hierarchy: with EnableSpill, eviction victims demote to a spill log
// that is consulted before the slow tier and rewarmed after a restart.
type Tiered struct {
	slow         Store
	fast         *tier.Store
	hits, misses atomic.Uint64 // fast-tier outcomes
}

// NewTiered builds a tiered store with the given fast-tier byte capacity.
// The first parameter is unused (the fast tier is always a tier.Store);
// it stays because bench/ compiles against this signature.
func NewTiered(_ Store, slow Store, capacity int64) *Tiered {
	// tier reads 0 as unlimited; here no budget means nothing is cached.
	return &Tiered{slow: slow, fast: tier.New(max(capacity, 1), datasetOf)}
}

// datasetOf is the dataset prefix of an object key (server.ObjectKey
// shape: "dataset/chunkID") — the group the fast tier accounts under.
func datasetOf(key string) string {
	ds, _, _ := strings.Cut(key, "/")
	return ds
}

// Put implements Store: objects are created in the slow tier only. No
// cached copy can stand in the way: a key is free only once Delete has
// returned, and Delete invalidates the fast tier and the spill level.
func (t *Tiered) Put(key string, data []byte) error { return t.slow.Put(key, data) }

// Get implements Store: the caller gets a copy of its own, since the fast
// tier keeps what GetPooled lends.
func (t *Tiered) Get(key string) ([]byte, error) { return owned(t.GetPooled(key)) }

// GetPooled implements PooledReader by lending what the fast tier holds:
// tier.Store values are immutable, GC-owned and stay valid after eviction,
// demotion or Remove, so a hit is lent as it lies and a miss — which reads
// through, spill level then slow tier — lends the very slice it read and
// offered to the fast tier. There is nothing to hand back.
func (t *Tiered) GetPooled(key string) ([]byte, func(), error) {
	if b, ok := t.fast.Get(key); ok {
		t.hits.Add(1)
		return b, noopRelease, nil
	}
	t.misses.Add(1)
	gen := t.fast.Gen(key)
	// The spill level answers before the slow tier pays HDD latency: a
	// previously evicted (or pre-restart) object comes back checksum-
	// verified from local disk.
	b, ok := t.fast.LoadSpill(key)
	if !ok {
		var err error
		if b, err = t.slow.Get(key); err != nil {
			return nil, nil, err
		}
	}
	t.fast.Put(key, b, gen, nil)
	return b, noopRelease, nil
}

// GetRange implements Store.
func (t *Tiered) GetRange(key string, off, n int64) ([]byte, error) {
	return owned(t.GetRangePooled(key, off, n))
}

// GetRangePooled implements PooledReader. Ranges are served from whichever
// tier holds the object; range reads do not promote, since promotion would
// read the whole object and defeat the point of a partial read. A
// fast-tier hit is lent as a window into the cached slice (see GetPooled) —
// capped, so an append by the borrower cannot reach the bytes behind it.
func (t *Tiered) GetRangePooled(key string, off, n int64) ([]byte, func(), error) {
	if b, ok := t.fast.Get(key); ok {
		t.hits.Add(1)
		start, end, err := clampRange(int64(len(b)), off, n)
		if err != nil {
			return nil, nil, err
		}
		return b[start:end:end], noopRelease, nil
	}
	t.misses.Add(1)
	if b, ok := t.spillRange(key, off, n); ok {
		return b, noopRelease, nil
	}
	return GetRangePooled(t.slow, key, off, n)
}

// spillRange preads a range of a demoted object out of the spill level.
func (t *Tiered) spillRange(key string, off, n int64) ([]byte, bool) {
	size, ok := t.fast.SpillSize(key)
	if !ok {
		return nil, false
	}
	start, end, err := clampRange(size, off, n)
	if err != nil {
		return nil, false
	}
	return t.fast.ReadSpill(key, start, end-start)
}

// Delete implements Store: removes from the slow tier, then invalidates
// the cached copies — persisted in the spill log, so a deleted object is
// never resurrected by a later rewarm. Invalidating after the removal is
// what lets it win over a concurrent Get that read the old object (see
// tier.Store.Gen).
func (t *Tiered) Delete(key string) error {
	err := t.slow.Delete(key)
	t.fast.Remove(key)
	return err
}

// List implements Store, listing the durable (slow) tier.
func (t *Tiered) List(prefix string) ([]string, error) { return t.slow.List(prefix) }

// Size implements Store.
func (t *Tiered) Size(key string) (int64, error) { return t.slow.Size(key) }

// EnableSpill opens the spill level under the fast tier in dir, bounded
// to capacityBytes on disk (0 = unlimited), rebuilding its index from the
// segments a previous server process left there. Call once, at deploy
// time.
func (t *Tiered) EnableSpill(dir string, capacityBytes int64) (spill.Recovered, error) {
	return t.fast.EnableSpill(dir, capacityBytes)
}

// Close closes the spill log (if any), leaving its on-disk state for the
// next incarnation to rewarm from.
func (t *Tiered) Close() error { return t.fast.Close() }

// SpillStats snapshots the spill level (Enabled false when off).
func (t *Tiered) SpillStats() tier.Stats { return t.fast.Stats() }

// PerDatasetBytes folds resident bytes by dataset — the per-dataset view
// the /debug/cache handler serves.
func (t *Tiered) PerDatasetBytes() map[string]tier.GroupBytes { return t.fast.PerGroup() }

// FastBytes reports the bytes currently cached in the fast tier.
func (t *Tiered) FastBytes() int64 { return t.fast.Bytes() }

// HitCount returns the fast-tier hit count.
func (t *Tiered) HitCount() uint64 { return t.hits.Load() }

// MissCount returns the fast-tier miss count.
func (t *Tiered) MissCount() uint64 { return t.misses.Load() }

// RegisterMetrics attaches the store to the diesel_tier_*{site="objstore"}
// series. Fast-tier hits, misses and occupancy — the server-side cache of
// Figure 4 — are served by /debug/cache (HitCount, MissCount, FastBytes).
func (t *Tiered) RegisterMetrics(reg *obs.Registry) {
	tier.NewSite(reg, "objstore").Add(t.fast)
}
