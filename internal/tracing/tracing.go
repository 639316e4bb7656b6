// Package tracing is the repository's zero-dependency request tracer: the
// piece that turns the aggregate latency histograms of internal/obs into
// *attributable* latency. The paper's headline claims are latency claims —
// the read CDFs of §6, the metadata QPS scaling of Fig. 10, the cache-hit
// versus chunk-fetch split behind Table 2 — and a histogram can say a read
// was slow but not *where* it was slow. A span tree can: one traced
// DL_get shows client time, wire time, server handler time, the metadata
// KV fan-out and the cache branch taken, across every process it touched.
//
// Design constraints, in order:
//
//  1. Near-zero cost when off. Tracing is gated by EnableTracing (off by
//     default; with obs.EnableEvents it is one of the two gates — metrics
//     are always on): a disabled StartSpan is one atomic load and returns a nil *Span whose methods
//     are all nil-safe no-ops, so instrumented hot paths stay within the
//     <2% RPC-overhead budget the wire benchmarks enforce.
//  2. Stdlib only, like the rest of the repository.
//  3. Bounded memory. Completed traces are retained in fixed-size rings
//     (see collector.go): a recent ring for probabilistically sampled
//     traces plus a keep-if-slow store that tail-retains the slowest ones
//     regardless of ring churn. Span count per trace is capped.
//
// Cross-process propagation rides the wire protocol: internal/wire copies
// the active span's (traceID, spanID, sampled) into the trace fields of
// every frame header and rehydrates it server-side via StartRemote, so the
// server-side spans' parent IDs point at the caller's spans and a scraper
// (`dlcmd trace`) can stitch the tree back together across processes.
package tracing

import (
	"context"
	"math/rand/v2"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// enabled gates all span creation; the zero value means DISABLED —
// tracing is opt-in (a -trace flag on the binaries), unlike metrics.
var enabled atomic.Bool

// EnableTracing turns span recording on or off process-wide. When off,
// StartSpan returns a nil span and adds no context values, so the cost on
// instrumented paths is one atomic load per call site.
func EnableTracing(on bool) { enabled.Store(on) }

// Enabled reports whether tracing is on.
func Enabled() bool { return enabled.Load() }

// sampleDenied is the per-root probability complement store: rate is kept
// as a uint64 threshold over the full uint64 space so the sampling
// decision is one Uint64 compare, no floats on the hot path.
var sampleThreshold atomic.Uint64

func init() {
	sampleThreshold.Store(^uint64(0)) // rate 1.0: sample every root
	procName.Store(&defaultProc)
}

// SetSampleRate sets the probability (0..1) that a *new root* trace is
// recorded. Child spans and rehydrated remote spans follow their parent's
// decision (propagated in the wire trace block), so a trace is either
// recorded on every participating process or on none.
func SetSampleRate(p float64) {
	switch {
	case p <= 0:
		sampleThreshold.Store(0)
	case p >= 1:
		sampleThreshold.Store(^uint64(0))
	default:
		sampleThreshold.Store(uint64(p * float64(^uint64(0))))
	}
}

func sampleRoot() bool { return rand.Uint64() <= sampleThreshold.Load() }

// slowNS is the tail-retention threshold: a completed local trace at least
// this slow is kept in the collector's slow store even when the recent
// ring has long since recycled it. Also the exemplar threshold.
var slowNS atomic.Int64

// SetSlowThreshold sets the duration at or above which a completed trace
// is retained as slow and a slow observation records an exemplar trace
// ID. The default is 20ms.
func SetSlowThreshold(d time.Duration) { slowNS.Store(int64(d)) }

func init() { slowNS.Store(int64(20 * time.Millisecond)) }

var defaultProc = "pid-" + strconv.Itoa(os.Getpid())

// procName labels every span recorded in this process, so a stitched
// cross-process tree shows which process each span ran in.
var procName atomic.Pointer[string]

// SetProcess names this process in recorded spans ("diesel-server",
// "kvnode", "dlcmd"). Defaults to "pid-<os pid>".
func SetProcess(name string) {
	if name != "" {
		procName.Store(&name)
	}
}

// Process returns the configured process label.
func Process() string { return *procName.Load() }

// maxSpansPerTrace bounds one local trace's span list; span starts beyond
// the cap are not recorded (the trace notes how many were dropped), so a
// runaway fan-out cannot hold the whole request history in memory.
const maxSpansPerTrace = 512

// Attr is one key=value annotation on a span. Values are strings; callers
// format numbers themselves (the hot paths only attach attrs when the
// span is live, so the cost is paid only on sampled traces).
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Span is one timed operation within a trace. A nil *Span is a valid
// no-op span: every method checks the receiver, so call sites need no
// enabled-checks of their own beyond StartSpan.
type Span struct {
	tr *traceLocal

	name     string
	spanID   uint64
	parentID uint64
	startNS  int64

	mu    sync.Mutex
	endNS int64
	attrs []Attr
	errs  bool
}

// traceLocal accumulates the spans of one trace recorded in this process,
// rooted at the local root (the client's top-level span, or the span a
// wire server rehydrated from a request frame).
type traceLocal struct {
	traceID uint64
	root    *Span

	mu      sync.Mutex
	spans   []*Span
	dropped int
}

// notSampledKey marks a context whose root rolled against the sample
// rate: downstream StartSpan calls must not re-roll and create orphan
// roots.
type ctxKey int

const (
	spanKey ctxKey = iota
	notSampledKey
)

// FromContext returns the active span, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// ContextWith returns ctx with s active. A nil s returns ctx unchanged.
func ContextWith(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey, s)
}

func newID() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}

// StartSpan starts a span named name. With an active span in ctx the new
// span is its child in the same trace; otherwise a new trace root is
// created (subject to the sample rate). It returns a derived context
// carrying the new span and the span itself — nil when tracing is off or
// the trace is unsampled, in which case ctx flows through unchanged
// (except for the not-sampled marker on a freshly rejected root).
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if !enabled.Load() {
		return ctx, nil
	}
	if parent := FromContext(ctx); parent != nil {
		s := parent.tr.addSpan(name, parent.spanID)
		return ContextWith(ctx, s), s
	}
	if ctx.Value(notSampledKey) != nil {
		return ctx, nil
	}
	if !sampleRoot() {
		return context.WithValue(ctx, notSampledKey, true), nil
	}
	return startRoot(ctx, name, newID(), 0)
}

// ChildOf starts a child of ctx's active span, or returns nil when there
// is none: unlike StartSpan it never opens a new root. Transport layers
// (wire, kvstore fan-out) use it so that background or untraced calls do
// not each become a one-span trace of their own. The caller owns End.
func ChildOf(ctx context.Context, name string) *Span {
	if !enabled.Load() {
		return nil
	}
	parent := FromContext(ctx)
	if parent == nil {
		return nil
	}
	return parent.tr.addSpan(name, parent.spanID)
}

// StartRemote starts the local root of a trace whose parent span ran in
// another process: the wire server calls it with the IDs rehydrated from
// a request frame's trace block. The returned span parents every span the
// request creates in this process.
func StartRemote(ctx context.Context, name string, traceID, parentSpanID uint64) (context.Context, *Span) {
	if !enabled.Load() || traceID == 0 {
		return ctx, nil
	}
	return startRoot(ctx, name, traceID, parentSpanID)
}

func startRoot(ctx context.Context, name string, traceID, parentSpanID uint64) (context.Context, *Span) {
	tr := &traceLocal{traceID: traceID}
	s := &Span{
		tr:       tr,
		name:     name,
		spanID:   newID(),
		parentID: parentSpanID,
		startNS:  time.Now().UnixNano(),
	}
	tr.root = s
	tr.spans = append(tr.spans, s)
	return ContextWith(ctx, s), s
}

// addSpan appends a child span to the trace, honouring the span cap.
func (tr *traceLocal) addSpan(name string, parentID uint64) *Span {
	s := &Span{
		tr:       tr,
		name:     name,
		spanID:   newID(),
		parentID: parentID,
		startNS:  time.Now().UnixNano(),
	}
	tr.mu.Lock()
	if len(tr.spans) >= maxSpansPerTrace {
		tr.dropped++
		tr.mu.Unlock()
		return nil
	}
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
	return s
}

// TraceID returns the span's trace ID (0 on a nil span).
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.tr.traceID
}

// SpanID returns the span's ID (0 on a nil span).
func (s *Span) SpanID() uint64 {
	if s == nil {
		return 0
	}
	return s.spanID
}

// SetAttr attaches one key=value annotation.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetError marks the span failed and records the error text. A nil err is
// a no-op, so `defer`d call sites can pass their named return directly.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.errs = true
	s.attrs = append(s.attrs, Attr{Key: "error", Value: err.Error()})
	s.mu.Unlock()
}

// End completes the span. Ending the trace's local root offers the whole
// local trace to the collector; ending twice is a no-op. Child spans
// still running when the root ends are retained with their current state
// (endNS 0 renders as "unfinished").
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.endNS != 0 {
		s.mu.Unlock()
		return
	}
	s.endNS = time.Now().UnixNano()
	s.mu.Unlock()
	if s == s.tr.root {
		defaultCollector.offer(s.tr)
	}
}

// Duration returns the span's elapsed time (0 while unfinished or nil).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.endNS == 0 {
		return 0
	}
	return time.Duration(s.endNS - s.startNS)
}
