// Package slo watches the service-level objectives of a running DIESEL
// process and captures diagnostic evidence when they burn.
//
// Two pieces cooperate:
//
//   - Engine evaluates Objectives — "read p99 under X", "epoch stall p99
//     under Y", "quota rejections under W" — as multi-window burn rates
//     (fast ~1m, slow ~30m) of bad events over all events, read from the
//     cumulative histograms and counters the rest of the repo already
//     maintains in internal/obs. It polls; it never touches a hot path.
//
//   - Watchdog turns trouble into a diagnostic bundle: a tar.gz of the
//     metrics export, recent+slow traces, goroutine/heap/CPU profiles,
//     the job roster and the recent structured-event ring, retained in a
//     capped on-disk spool and served over /debug/diag. It subscribes to
//     the obs event ring, so the two trigger events — the engine's
//     slo-breach and dcache's breaker-trip — get evidence captured at the
//     moment they happened.
//
// Neither runs unless a binary opts in (-slo / -diag-spool flags). The
// event ring they listen on is gated off until a watchdog starts
// (obs.EnableEvents), as spans are until tracing.EnableTracing; those two
// are the only gates — metrics are always on.
package slo

import (
	"time"

	"diesel/internal/obs"
)

// Objective is one SLO: a fraction of events that may go bad. Every
// objective reads the same two cumulative counts, bad events and all
// events; a latency objective's bad events are the observations above
// its threshold, the quota objective's are its rejections. Budget is the
// error budget — the bad fraction the objective tolerates; the burn rate
// is the measured bad fraction divided by Budget, so burn 1.0 means
// "spending budget exactly as fast as allowed" and burn 10 means
// "10× too fast". Build objectives with the constructors below: a
// literal has no events to read and never burns.
type Objective struct {
	// Name identifies the objective in events, bundle manifests and
	// status output ("read-p99", "epoch-stall-p99", ...).
	Name string

	// Budget is the tolerated bad fraction in (0, 1].
	Budget float64

	// MinCount suppresses evaluation of windows with fewer total
	// events, so an idle process never pages on one unlucky sample.
	MinCount uint64

	// counts reads the cumulative bad and total event counts. bad is
	// fractional for a latency objective: the histogram bucket holding
	// the threshold counts its interpolated share above it.
	counts func() (bad float64, total uint64)
}

// latencyCounts counts the observations above threshold (histogram
// units, nanoseconds for Duration histograms) as bad, over the sum of
// hs. A bad count is linear in the bucket counts, so the difference of
// two readings is the bad count of the observations between them.
func latencyCounts(threshold time.Duration, hs ...*obs.Histogram) func() (float64, uint64) {
	return func() (bad float64, total uint64) {
		for _, h := range hs {
			s := h.Snapshot()
			bad += s.FractionAbove(uint64(threshold)) * float64(s.Count)
			total += s.Count
		}
		return bad, total
	}
}

// ReadLatencyObjective builds the per-read latency SLO over the server's
// read-path handler histograms (diesel_wire_served_seconds for dsl.get /
// dsl.getBatch / dsl.getChunk). Registration is idempotent, so this
// attaches to the same histograms the wire layer observes into.
func ReadLatencyObjective(reg *obs.Registry, threshold time.Duration, budget float64) Objective {
	const help = "Server-side handler latency by method (decode to response-ready)."
	methods := []string{"dsl.get", "dsl.getBatch", "dsl.getChunk"}
	hs := make([]*obs.Histogram, 0, len(methods))
	for _, m := range methods {
		hs = append(hs, reg.Duration("diesel_wire_served_seconds", help, obs.L("method", m)))
	}
	return Objective{Name: "read-p99", Budget: budget, MinCount: 20, counts: latencyCounts(threshold, hs...)}
}

// EpochStallObjective builds the epoch-reader stall SLO over
// diesel_epoch_stall_seconds (time Next blocked on the prefetch
// pipeline).
func EpochStallObjective(reg *obs.Registry, threshold time.Duration, budget float64) Objective {
	h := reg.Duration("diesel_epoch_stall_seconds",
		"Time Next blocked waiting for a group fetch.")
	return Objective{Name: "epoch-stall-p99", Budget: budget, MinCount: 20, counts: latencyCounts(threshold, h)}
}

// QuotaRejectionObjective builds the quota-rejection SLO for the given
// tenants over diesel_tenant_rejected/admitted_total: rejections are
// the bad events, rejections plus admissions all events. budget is the
// tolerated rejected fraction of admission decisions.
func QuotaRejectionObjective(reg *obs.Registry, budget float64, tenants ...string) Objective {
	var rejected, admitted []*obs.Counter
	for _, t := range tenants {
		rejected = append(rejected, reg.Counter("diesel_tenant_rejected_total",
			"Read requests rejected by the tenant quota gate.", obs.L("tenant", t)))
		admitted = append(admitted, reg.Counter("diesel_tenant_admitted_total",
			"Read requests admitted past the tenant quota gate.", obs.L("tenant", t)))
	}
	return Objective{Name: "quota-rejections", Budget: budget, MinCount: 50, counts: func() (float64, uint64) {
		var bad, all uint64
		for i := range rejected {
			r := rejected[i].Load()
			bad += r
			all += r + admitted[i].Load()
		}
		return float64(bad), all
	}}
}
