// Package slo watches the service-level objectives of a running DIESEL
// process and captures diagnostic evidence when they burn.
//
// Two pieces cooperate:
//
//   - Engine evaluates Objectives — "read p99 under X", "epoch stall p99
//     under Y", "quota rejections under W" — as multi-window burn rates
//     (fast ~1m, slow ~30m) over the cumulative histograms and counters
//     the rest of the repo already maintains in internal/obs. It polls;
//     it never touches a hot path.
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

// Objective is one SLO: either a latency objective (observations above
// ThresholdNS are bad) over one or more histograms, or a ratio objective
// (Bad events / (Bad+Good) events) over counters. Budget is the error
// budget — the bad fraction the objective tolerates; the burn rate is
// the measured bad fraction divided by Budget, so burn 1.0 means
// "spending budget exactly as fast as allowed" and burn 10 means
// "10× too fast".
type Objective struct {
	// Name identifies the objective in events, bundle manifests and
	// status output ("read-p99", "epoch-stall-p99", ...).
	Name string

	// Latency form: observations above ThresholdNS (raw histogram
	// units, i.e. nanoseconds for Duration histograms) are bad.
	Hists       []*obs.Histogram
	ThresholdNS uint64

	// Ratio form: bad fraction = ΔBad / (ΔBad + ΔGood) over the window.
	Bad  []*obs.Counter
	Good []*obs.Counter

	// Budget is the tolerated bad fraction in (0, 1].
	Budget float64

	// MinCount suppresses evaluation of windows with fewer total
	// events, so an idle process never pages on one unlucky sample.
	MinCount uint64
}

// latency reports whether o is the latency form.
func (o Objective) latency() bool { return len(o.Hists) > 0 }

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
	return Objective{
		Name:        "read-p99",
		Hists:       hs,
		ThresholdNS: uint64(threshold),
		Budget:      budget,
		MinCount:    20,
	}
}

// EpochStallObjective builds the epoch-reader stall SLO over
// diesel_epoch_stall_seconds (time Next blocked on the prefetch
// pipeline).
func EpochStallObjective(reg *obs.Registry, threshold time.Duration, budget float64) Objective {
	h := reg.Duration("diesel_epoch_stall_seconds",
		"Time Next blocked waiting for a group fetch.")
	return Objective{
		Name:        "epoch-stall-p99",
		Hists:       []*obs.Histogram{h},
		ThresholdNS: uint64(threshold),
		Budget:      budget,
		MinCount:    20,
	}
}

// QuotaRejectionObjective builds the quota-rejection SLO for the given
// tenants over diesel_tenant_rejected/admitted_total. budget is the
// tolerated rejected fraction of admission decisions.
func QuotaRejectionObjective(reg *obs.Registry, budget float64, tenants ...string) Objective {
	o := Objective{Name: "quota-rejections", Budget: budget, MinCount: 50}
	for _, t := range tenants {
		o.Bad = append(o.Bad, reg.Counter("diesel_tenant_rejected_total",
			"Read requests rejected by the tenant quota gate.", obs.L("tenant", t)))
		o.Good = append(o.Good, reg.Counter("diesel_tenant_admitted_total",
			"Read requests admitted past the tenant quota gate.", obs.L("tenant", t)))
	}
	return o
}
