package server

import (
	"encoding/json"
	"net/http"

	"diesel/internal/objstore"
	"diesel/internal/tier"
)

// CacheDebug is the /debug/cache response: the server-side cache
// picture across the fast (SSD) tier and the local-disk spill tier.
type CacheDebug struct {
	FastBytes  int64                      `json:"fast_bytes"`
	FastHits   uint64                     `json:"fast_hits"`
	FastMisses uint64                     `json:"fast_misses"`
	Spill      tier.Stats                 `json:"spill"`
	Datasets   map[string]tier.GroupBytes `json:"datasets"`
}

// CacheHandler serves the tiered store's occupancy as JSON on
// /debug/cache: fast-tier bytes and hit counters, the spill tier's
// entries, segments and traffic, and per-dataset resident bytes in each
// tier — what `dlcmd cache` pretty-prints. Without a tiered store it
// answers 404 JSON, so probes can tell "no cache tier" from "endpoint
// gone".
func (s *Server) CacheHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		t, ok := s.objects.(*objstore.Tiered)
		if !ok {
			jobsError(w, http.StatusNotFound, "no cache tier configured")
			return
		}
		out := CacheDebug{
			FastBytes:  t.FastBytes(),
			FastHits:   t.HitCount(),
			FastMisses: t.MissCount(),
			Spill:      t.SpillStats(),
			Datasets:   t.PerDatasetBytes(),
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(out)
	})
}
