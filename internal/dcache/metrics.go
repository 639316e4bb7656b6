package dcache

import (
	"sync"

	"diesel/internal/obs"
	"diesel/internal/tier"
)

// Process-wide cache metrics on the default registry. Read-outcome
// counters mirror the per-peer Stats struct; the gauge sums over every
// live peer in the process.
//
//	diesel_dcache_reads_total{source}      reads by answering tier
//	                                       ("local", "peer", "server")
//	diesel_dcache_chunk_loads_total        chunks pulled from DIESEL servers
//	diesel_dcache_master_deaths_total      masters marked dead by the breaker
//	diesel_dcache_master_revivals_total    dead masters revived by a probe
//	diesel_dcache_prefetch_errors_total    background Oneshot prefetch failures
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

// livePeers tracks every open Peer so the gauge below can sum over
// them. Join adds, Close removes; a closed peer contributes nothing.
var (
	peersMu   sync.Mutex
	livePeers = make(map[*Peer]struct{})
)

func init() {
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
	delete(livePeers, p)
	peersMu.Unlock()
}
