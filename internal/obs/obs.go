// Package obs is the repository's zero-dependency metrics and profiling
// layer. It plays the role a Prometheus client library plays in a
// production deployment — the paper's whole evaluation (Figs. 9–12,
// Table 2) is latency/QPS/hit-rate driven, and this package is what makes
// those numbers observable on a *running* cluster rather than only inside
// one-shot benchmarks.
//
// The design constraints, in order:
//
//  1. Hot-path cost must be a handful of atomic adds: Counter.Add and
//     Histogram.Observe are allocation-free and lock-free (see
//     bench_test.go), so instrumenting the wire layer's per-frame path
//     costs well under 2% of a loopback round trip.
//  2. Stdlib only. The repo is intentionally dependency-free, so the
//     registry renders the Prometheus text exposition format itself and
//     the HTTP handler reuses net/http/pprof and expvar for profiling.
//  3. Histograms are fixed-size and mergeable: power-of-two buckets make
//     bucket selection one bits.Len64, keep the footprint constant, and
//     let snapshots from many components be merged exactly.
package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. The zero value is ready
// to use, so it can be embedded by value in stats structs (the dcache and
// client Stats structs are built from these).
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// A FuncGauge reads its value from a callback at scrape time — the right
// shape for values another component already maintains (KV database size,
// cached bytes across live peers). The callback must be safe to call
// concurrently with the component it reads.
type FuncGauge struct {
	fn atomic.Pointer[func() float64]
}

// set installs the callback (last registration wins, so a re-deployed
// component in one process takes over its gauge).
func (f *FuncGauge) set(fn func() float64) { f.fn.Store(&fn) }

// Load evaluates the callback. NaN-guarded: a nil callback reads 0.
func (f *FuncGauge) Load() float64 {
	p := f.fn.Load()
	if p == nil {
		return 0
	}
	v := (*p)()
	if math.IsNaN(v) {
		return 0
	}
	return v
}
