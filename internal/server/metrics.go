package server

import (
	"diesel/internal/objstore"
	"diesel/internal/obs"
)

// RegisterMetrics registers scrape-time views of the server's state on
// reg. Per-RPC counts, latency and errors come for free from the wire
// layer (diesel_wire_served_seconds{method}, diesel_wire_errors_total),
// the fast-tier cache's hits and occupancy by /debug/cache; what the
// server adds is what only it can see: metadata database size, the live
// job count, and its tiered store's diesel_tier_*{site="objstore"}.
//
// FuncGauge callbacks run at scrape time, so diesel_server_kv_keys costs
// one DBSize round per scrape — cheap against any sane scrape interval.
// It reports -1 when the metadata database is unreachable, which a
// dashboard can alert on without conflating it with "empty".
func (s *Server) RegisterMetrics(reg *obs.Registry) {
	reg.Func("diesel_server_kv_keys",
		"Total keys in the metadata database (-1 if unreachable).",
		func() float64 {
			n, err := s.kv.DBSize()
			if err != nil {
				return -1
			}
			return float64(n)
		})
	reg.Func("diesel_job_live",
		"Live registered training jobs (-1 when the job registry is off or unreachable).",
		func() float64 {
			jr := s.JobRegistry()
			if jr == nil {
				return -1
			}
			jobs, err := jr.Jobs()
			if err != nil {
				return -1
			}
			return float64(len(jobs))
		})
	if t, ok := s.objects.(*objstore.Tiered); ok {
		t.RegisterMetrics(reg)
	}
}
