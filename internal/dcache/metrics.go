package dcache

import (
	"sync"

	"diesel/internal/obs"
	"diesel/internal/tier"
)

// Process-wide cache metrics on the default registry. Read-outcome
// counters mirror the per-peer Stats struct; the gauges sum over every
// live peer in the process, so one scrape sees the whole task's cache
// footprint even when several peers share a process (as tests and the
// single-node quickstart do):
//
//	diesel_dcache_reads_total{source}      reads by answering tier
//	                                       ("local", "peer", "server")
//	diesel_dcache_chunk_loads_total        chunks pulled from DIESEL servers
//	diesel_dcache_loaded_bytes_total       bytes pulled from DIESEL servers
//	diesel_dcache_evictions_total          chunks evicted under capacity
//	diesel_dcache_oversized_chunks_total   chunks too large to cache at all
//	diesel_dcache_master_deaths_total      masters marked dead by the breaker
//	diesel_dcache_master_revivals_total    dead masters revived by a probe
//	diesel_dcache_prefetch_errors_total    background Oneshot prefetch failures
//	diesel_dcache_cached_bytes             payload bytes cached (live peers)
//	diesel_dcache_cached_chunks            chunks cached (live peers)
//	diesel_dcache_dialed_masters           distinct remote masters dialed
//	diesel_dcache_dead_masters             masters currently marked dead
var (
	mLocalHits = obs.Default().Counter("diesel_dcache_reads_total",
		"Cache reads by answering tier.", obs.L("source", "local"))
	mPeerReads = obs.Default().Counter("diesel_dcache_reads_total",
		"Cache reads by answering tier.", obs.L("source", "peer"))
	mFallbacks = obs.Default().Counter("diesel_dcache_reads_total",
		"Cache reads by answering tier.", obs.L("source", "server"))
	mChunkLoads = obs.Default().Counter("diesel_dcache_chunk_loads_total",
		"Chunks pulled from DIESEL servers by cache masters.")
	mBytesLoaded = obs.Default().Counter("diesel_dcache_loaded_bytes_total",
		"Encoded chunk bytes pulled from DIESEL servers by cache masters.")
	mEvictions = obs.Default().Counter("diesel_dcache_evictions_total",
		"Chunks evicted from master caches under capacity pressure.")
	mOversized = obs.Default().Counter("diesel_dcache_oversized_chunks_total",
		"Chunks served read-through but too large for the cache capacity.")
	mMasterDeaths = obs.Default().Counter("diesel_dcache_master_deaths_total",
		"Remote masters marked dead after consecutive transport failures.")
	mMasterRevivals = obs.Default().Counter("diesel_dcache_master_revivals_total",
		"Dead masters revived by a successful re-probe.")
	mPrefetchErrors = obs.Default().Counter("diesel_dcache_prefetch_errors_total",
		"Background Oneshot prefetch runs that failed.")
)

// tierSite carries the two-level store's signals — demotions, promotions,
// spill hits/misses, drops, rewarm, spill occupancy — for every master
// store and shared cache in the process, as diesel_tier_*{site="dcache"}
// (see internal/tier).
var tierSite = tier.NewSite(obs.Default(), "dcache")

// livePeers tracks every open Peer so the gauges below can sum over
// them. Join adds, Close removes; a closed peer contributes nothing.
var (
	peersMu   sync.Mutex
	livePeers = make(map[*Peer]struct{})
)

func init() {
	sumOver := func(f func(*Peer) float64) func() float64 {
		return func() float64 {
			peersMu.Lock()
			defer peersMu.Unlock()
			var total float64
			for p := range livePeers {
				total += f(p)
			}
			return total
		}
	}
	obs.Default().Func("diesel_dcache_cached_bytes",
		"Payload bytes cached across this process's live cache masters.",
		sumOver(func(p *Peer) float64 { return float64(p.CachedBytes()) }))
	obs.Default().Func("diesel_dcache_cached_chunks",
		"Chunks cached across this process's live cache masters.",
		sumOver(func(p *Peer) float64 { return float64(p.CachedChunks()) }))
	obs.Default().Func("diesel_dcache_dialed_masters",
		"Distinct remote masters dialed across this process's live peers.",
		sumOver(func(p *Peer) float64 { return float64(p.DialedMasters()) }))
	obs.Default().Func("diesel_dcache_dead_masters",
		"Remote masters currently marked dead across this process's live peers.",
		sumOver(func(p *Peer) float64 { return float64(p.DeadMasters()) }))
}

func trackPeer(p *Peer) {
	peersMu.Lock()
	livePeers[p] = struct{}{}
	peersMu.Unlock()
}

func untrackPeer(p *Peer) {
	peersMu.Lock()
	delete(livePeers, p)
	peersMu.Unlock()
}
