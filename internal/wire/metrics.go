package wire

import (
	"sync"
	"sync/atomic"
	"time"

	"diesel/internal/obs"
)

// Wire-level metrics on the default registry. Every networked component
// in the repository (DIESEL servers, KV nodes, cache peers, the etcd-like
// registry) funnels through this package, so these families are the
// ground-truth traffic counters for any process:
//
//	diesel_wire_frames_total{dir}       frames read ("in") / written ("out")
//	diesel_wire_bytes_total{dir}        payload bytes read / written
//	diesel_wire_pool_calls_total        calls multiplexed over pooled conns
//	diesel_wire_redials_total           broken pool connections redialed
//	diesel_wire_call_timeouts_total     calls abandoned at their deadline
//	diesel_wire_call_seconds{method}    client-side RPC round-trip latency
//	diesel_wire_served_seconds{method}  server-side handler latency
//	diesel_wire_errors_total{method}    server-side handler failures
var (
	mFramesIn     = obs.Default().Counter("diesel_wire_frames_total", "Frames read or written by the wire transport.", obs.L("dir", "in"))
	mFramesOut    = obs.Default().Counter("diesel_wire_frames_total", "Frames read or written by the wire transport.", obs.L("dir", "out"))
	mBytesIn      = obs.Default().Counter("diesel_wire_bytes_total", "Payload bytes read or written by the wire transport.", obs.L("dir", "in"))
	mBytesOut     = obs.Default().Counter("diesel_wire_bytes_total", "Payload bytes read or written by the wire transport.", obs.L("dir", "out"))
	mPoolCalls    = obs.Default().Counter("diesel_wire_pool_calls_total", "Calls issued through pooled connections.")
	mRedials      = obs.Default().Counter("diesel_wire_redials_total", "Broken pool connections successfully redialed.")
	mCallTimeouts = obs.Default().Counter("diesel_wire_call_timeouts_total", "RPC calls abandoned because their deadline or context expired.")
)

// metricsOff gates hot-path metric updates; the zero value means ENABLED.
// The inverted sense keeps the gate branch-predictable and lets the
// instrumented-vs-uninstrumented benchmark (rpc_bench_test.go) measure
// the overhead honestly in one binary.
var metricsOff atomic.Bool

// metricsOn reports whether the hot paths should record.
func metricsOn() bool { return !metricsOff.Load() }

// methodHists caches per-method latency histograms so the hot path pays
// one lock-free sync.Map load instead of a registry lookup.
type methodHists struct {
	name, help string
	m          sync.Map // method → *obs.Histogram
}

func (mh *methodHists) get(method string) *obs.Histogram {
	if h, ok := mh.m.Load(method); ok {
		return h.(*obs.Histogram)
	}
	h := obs.Default().Duration(mh.name, mh.help, obs.L("method", method))
	mh.m.Store(method, h)
	return h
}

var (
	callHists = &methodHists{
		name: "diesel_wire_call_seconds",
		help: "Client-observed RPC round-trip latency by method.",
	}
	serveHists = &methodHists{
		name: "diesel_wire_served_seconds",
		help: "Server-side handler latency by method (decode to response-ready).",
	}
	errCounters sync.Map // method → *obs.Counter
)

func serveErrCounter(method string) *obs.Counter {
	if c, ok := errCounters.Load(method); ok {
		return c.(*obs.Counter)
	}
	c := obs.Default().Counter("diesel_wire_errors_total",
		"Server-side handler failures by method (unknown methods count under method=\"?\").",
		obs.L("method", method))
	errCounters.Store(method, c)
	return c
}

// observeCall records one client round trip.
func observeCall(method string, start time.Time) {
	if metricsOn() {
		callHists.get(method).Since(start)
	}
}

// observeServe records one served request.
func observeServe(method string, start time.Time, failed bool) {
	if !metricsOn() {
		return
	}
	serveHists.get(method).Since(start)
	if failed {
		serveErrCounter(method).Inc()
	}
}
