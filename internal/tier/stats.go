package tier

import (
	"sync"

	"diesel/internal/obs"
)

// Stats snapshots a store's spill level and the traffic between the two
// levels. Enabled false means the spill level is off (or closed); the
// counters then still hold what was counted while it was on.
type Stats struct {
	Enabled       bool   `json:"enabled"`
	Entries       int    `json:"entries"`    // values resident in the spill level
	Bytes         int64  `json:"bytes"`      // value bytes reachable via the spill index
	DiskBytes     int64  `json:"disk_bytes"` // segment bytes on disk (headers and dead space included)
	Segments      int    `json:"segments"`
	Hits          uint64 `json:"hits"`   // reads answered by the spill level (preads + whole-value loads)
	Misses        uint64 `json:"misses"` // whole-value loads that missed both levels and went to the origin
	Demotions     uint64 `json:"demotions"`
	DemotedBytes  uint64 `json:"demoted_bytes"`  // bytes physically written (re-demotions are free)
	Promotions    uint64 `json:"promotions"`     // whole values read back from spill, checksum-verified
	Dropped       uint64 `json:"dropped"`        // entries lost to segment retirement (disk budget)
	RewarmEntries int    `json:"rewarm_entries"` // entries the segment scan rebuilt at EnableSpill
	RewarmBytes   int64  `json:"rewarm_bytes"`
}

// Stats snapshots the store.
func (s *Store) Stats() Stats {
	st := Stats{
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		Demotions:    s.demotions.Load(),
		DemotedBytes: s.demotedB.Load(),
		Promotions:   s.promos.Load(),
	}
	if sp := s.spill.Load(); sp != nil {
		ls := sp.log.Stats()
		st.Enabled = true
		st.Entries, st.Bytes, st.DiskBytes = ls.Entries, ls.LiveBytes, ls.DiskBytes
		st.Segments, st.Dropped = ls.Segments, ls.DroppedEntries
		st.RewarmEntries, st.RewarmBytes = sp.rewarmed.Entries, sp.rewarmed.Bytes
	}
	return st
}

// Site aggregates the stores of one call site ("dcache", "objstore")
// into the diesel_tier_*{site=...} series, read at scrape time from the
// stores' own Stats — there is no second set of counters to keep in step.
type Site struct {
	mu   sync.Mutex
	live map[*Store]struct{}
	gone Stats // counters of stores since closed, so the series stay monotonic
}

// NewSite registers the site's series on reg. Registering a site name
// again replaces the callbacks (obs: last writer wins), so a re-created
// deployment takes the series over.
func NewSite(reg *obs.Registry, name string) *Site {
	si := &Site{live: make(map[*Store]struct{})}
	site := obs.L("site", name)
	for _, m := range []struct {
		name, help string
		counter    bool
		val        func(Stats) float64
	}{
		{"diesel_tier_demotions_total", "RAM eviction victims demoted to the local-disk spill level instead of dropped.",
			true, func(st Stats) float64 { return float64(st.Demotions) }},
		{"diesel_tier_promotions_total", "Whole values read back from spill, checksum-verified.",
			true, func(st Stats) float64 { return float64(st.Promotions) }},
		{"diesel_tier_spill_hits_total", "Reads answered by the spill level (preads and whole-value loads).",
			true, func(st Stats) float64 { return float64(st.Hits) }},
		{"diesel_tier_spill_misses_total", "Whole-value loads that missed RAM and spill and went to the origin.",
			true, func(st Stats) float64 { return float64(st.Misses) }},
		{"diesel_tier_dropped_total", "Spilled values dropped by segment retirement under the spill disk budget.",
			true, func(st Stats) float64 { return float64(st.Dropped) }},
		{"diesel_tier_rewarmed_total", "Values rewarmed from the spill segments at start (restart recovery at disk bandwidth).",
			true, func(st Stats) float64 { return float64(st.RewarmEntries) }},
		{"diesel_tier_spill_bytes", "Value bytes resident in the spill level (open stores).",
			false, func(st Stats) float64 { return float64(st.Bytes) }},
	} {
		fn := func() float64 { return m.val(si.sum()) }
		if m.counter {
			reg.FuncCounter(m.name, m.help, fn, site)
		} else {
			reg.Func(m.name, m.help, fn, site)
		}
	}
	return si
}

// Add attaches a store to the site until the store is closed.
func (si *Site) Add(s *Store) {
	s.site = si
	si.mu.Lock()
	si.live[s] = struct{}{}
	si.mu.Unlock()
}

// retire folds a closing store's counters into the site's running total.
func (si *Site) retire(s *Store) {
	si.mu.Lock()
	defer si.mu.Unlock()
	if _, ok := si.live[s]; !ok {
		return
	}
	delete(si.live, s)
	st := s.Stats()
	st.Bytes = 0 // occupancy leaves with the store
	si.gone.add(st)
}

func (si *Site) sum() Stats {
	si.mu.Lock()
	defer si.mu.Unlock()
	total := si.gone
	for s := range si.live {
		total.add(s.Stats())
	}
	return total
}

// add accumulates the fields the series report.
func (a *Stats) add(b Stats) {
	a.Bytes += b.Bytes
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.Demotions += b.Demotions
	a.Promotions += b.Promotions
	a.Dropped += b.Dropped
	a.RewarmEntries += b.RewarmEntries
}
