package dcache

import (
	"sync"

	"diesel/internal/obs"
	"diesel/internal/tier"
)

// Process-wide cache metrics on the default registry. Each counter family
// is read at scrape time as the sum of one Stats field over every peer in
// the process — the live ones plus the totals closed peers left behind —
// so an event is counted once, in its peer's Stats; the gauge sums over
// live peers only.
//
//	diesel_dcache_reads_total{source}      reads by answering tier
//	                                       ("local", "peer", "server")
//	diesel_dcache_chunk_loads_total        chunks pulled from DIESEL servers
//	diesel_dcache_master_deaths_total      masters marked dead by the breaker
//	diesel_dcache_master_revivals_total    dead masters revived by a probe
//	diesel_dcache_prefetch_errors_total    background Oneshot prefetch failures
//	diesel_dcache_dead_masters             masters currently marked dead
var mMasterRevivals = obs.Default().Counter("diesel_dcache_master_revivals_total",
	"Dead masters revived by a successful re-probe.")

const readsHelp = "Cache reads by answering tier."

// statFamilies maps each per-peer Stats field with a family to its series.
var statFamilies = []struct {
	name, help string
	labels     []obs.Label
	field      func(*Stats) *obs.Counter
}{
	{"diesel_dcache_reads_total", readsHelp, []obs.Label{obs.L("source", "local")},
		func(s *Stats) *obs.Counter { return &s.LocalHits }},
	{"diesel_dcache_reads_total", readsHelp, []obs.Label{obs.L("source", "peer")},
		func(s *Stats) *obs.Counter { return &s.PeerReads }},
	{"diesel_dcache_reads_total", readsHelp, []obs.Label{obs.L("source", "server")},
		func(s *Stats) *obs.Counter { return &s.ServerFallback }},
	{"diesel_dcache_chunk_loads_total", "Chunks pulled from DIESEL servers by cache masters.", nil,
		func(s *Stats) *obs.Counter { return &s.ChunkLoads }},
	{"diesel_dcache_master_deaths_total", "Remote masters marked dead after consecutive transport failures.", nil,
		func(s *Stats) *obs.Counter { return &s.MasterDeaths }},
	{"diesel_dcache_prefetch_errors_total", "Background Oneshot prefetch runs that failed.", nil,
		func(s *Stats) *obs.Counter { return &s.PrefetchErrors }},
}

// tierSite carries the two-level store's signals — demotions, promotions,
// spill hits/misses, drops, rewarm, spill occupancy — for every cache in
// the process, as diesel_tier_*{site="dcache"} (see internal/tier).
var tierSite = tier.NewSite(obs.Default(), "dcache")

// livePeers tracks every open Peer so the series above can sum over them.
// Join adds, Close removes and folds the peer's counters into closedStats,
// so the counter families never step back when a peer goes.
var (
	peersMu     sync.Mutex
	livePeers   = make(map[*Peer]struct{})
	closedStats Stats
)

func init() {
	for _, f := range statFamilies {
		obs.Default().FuncCounter(f.name, f.help, func() float64 {
			peersMu.Lock()
			defer peersMu.Unlock()
			total := f.field(&closedStats).Load()
			for p := range livePeers {
				total += f.field(&p.Stats).Load()
			}
			return float64(total)
		}, f.labels...)
	}
	obs.Default().Func("diesel_dcache_dead_masters",
		"Remote masters currently marked dead across this process's live peers.",
		func() float64 {
			peersMu.Lock()
			defer peersMu.Unlock()
			total := 0
			for p := range livePeers {
				total += p.DeadMasters()
			}
			return float64(total)
		})
}

func trackPeer(p *Peer) {
	peersMu.Lock()
	livePeers[p] = struct{}{}
	peersMu.Unlock()
}

func untrackPeer(p *Peer) {
	peersMu.Lock()
	defer peersMu.Unlock()
	delete(livePeers, p)
	for _, f := range statFamilies {
		f.field(&closedStats).Add(f.field(&p.Stats).Load())
	}
}
