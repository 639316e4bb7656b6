// Package epoch implements the pipelined epoch read path of a DIESEL
// training task: the consumer of a chunk-wise shuffle plan (§4.3,
// Figure 8).
//
// DIESEL's headline win is turning shuffled small-file reads into large
// sequential chunk reads (Table 2). The shuffle plan already guarantees
// that consecutive positions stay within one group of chunks; what is
// left on the table without this package is *overlap* — the network fetch
// of group k+1 hiding behind the consumption of group k, which is where
// most of the wall-clock saving of a network loader lives. A Reader
// prefetches whole groups a bounded window ahead with backpressure and
// serves them through a simple iterator, propagating one context end to
// end so a cancelled training loop abandons in-flight RPCs instead of
// leaking them.
//
// There is one consumer: fetch workers announce finished groups on one
// channel, and Next serves the earliest-completed group that lies at most
// WithReorderWindow groups ahead of the oldest unserved one. In-order
// delivery is that rule with a window of zero — the default — not a
// second reader; files within a group always come in plan order.
//
// The fetch strategy is pluggable (Source): ClientSource pulls whole
// chunks from the DIESEL servers (DL_get_chunk) and slices files locally,
// CacheSource reads through the task-grained distributed cache when the
// task has one joined.
package epoch

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"diesel/internal/meta"
	"diesel/internal/shuffle"
	"diesel/internal/tracing"
)

// Sample is one file served in epoch order.
type Sample struct {
	Pos   int    // position in the epoch order (index into plan.Files)
	Group int    // plan group the position belongs to
	Path  string // full file path
	Data  []byte // file contents
}

// ErrClosed is returned by Next after Close (or after the reader's
// context is cancelled).
var ErrClosed = errors.New("epoch: reader closed")

// Option configures a Reader (functional options, matching the style of
// internal/wire).
type Option func(*config)

type config struct {
	ctx      context.Context
	window   int
	reorder  int           // groups servable ahead of the oldest unserved (0 = exact order)
	deadline time.Duration // per-ReadGroup-attempt timeout (0 = none)

	hedge      bool          // reissue straggling fetches after the adaptive delay
	hedgeSrc   Source        // secondary source for hedges (nil = primary again)
	hedgeFloor time.Duration // hedgeDelayFloor; tests shrink it in-package
}

// WithWindow bounds how many groups may be fetched ahead of the one being
// consumed — the pipeline's memory footprint is window+1 groups of files.
// Window 0 is fully synchronous: each group is fetched only when the
// consumer reaches it (no overlap, the baseline the benchmarks compare
// against). Default 2.
//
// With a capacity-bounded task cache, window×groupSize+groupSize chunks
// must fit the cache or prefetch evicts the group being read.
func WithWindow(n int) Option {
	return func(c *config) {
		if n >= 0 {
			c.window = n
		}
	}
}

// WithReorderWindow lets Next serve samples from whichever of the next
// k+1 prefetched groups completed first: a group may be delivered at most
// k groups ahead of the oldest not-yet-served one, so a straggling fetch
// no longer blocks the groups that finished behind it. Within each group
// samples stay in plan order, and Sample.Pos always carries the exact
// plan position, so consumers that need the global order can either keep
// the default k=0 (exact plan order) or reorder by Pos themselves. "Hiding
// Latencies in Network-Based Image Loading" shows DL training tolerates
// exactly this bounded reordering —
// the shuffle already randomized the order, so a bounded, shuffle-seeded
// permutation of group delivery is statistically invisible to SGD.
//
// Reordering needs a pipeline to reorder: with window 0 (synchronous
// fetches) k is ignored.
func WithReorderWindow(k int) Option {
	return func(c *config) {
		if k >= 0 {
			c.reorder = k
		}
	}
}

// WithGroupDeadline bounds every group-fetch attempt with its own
// timeout: a wedged fetch degrades to the hedge (or one fresh-context
// retry when hedging is off) instead of occupying a window slot until the
// epoch's own context dies. Zero disables (the default).
func WithGroupDeadline(d time.Duration) Option {
	return func(c *config) {
		if d > 0 {
			c.deadline = d
		}
	}
}

// WithHedge enables hedged group fetches: when a fetch outlives
// max(hedgeDelayFloor, rolling p99 of this reader's attempt latencies), the
// group is reissued through secondary — or through the primary source again
// with a fresh context when secondary is nil — and the first success
// wins; the loser is cancelled and its result dropped. secondary must be
// safe for concurrent use alongside the primary.
func WithHedge(secondary Source) Option {
	return func(c *config) {
		c.hedge = true
		c.hedgeSrc = secondary
	}
}

// WithContext attaches a context to the whole epoch: cancellation or
// deadline expiry stops the prefetch pipeline and propagates to every
// in-flight RPC (client → wire.CallContext), so Next returns within one
// call round trip of the cancellation.
func WithContext(ctx context.Context) Option {
	return func(c *config) {
		if ctx != nil {
			c.ctx = ctx
		}
	}
}

type groupResult struct {
	g    int // plan group index
	data [][]byte
	err  error
	sp   *tracing.Span // the group's fetch span (ended), for stall exemplars
}

// Reader streams one epoch in plan order while prefetching whole chunk
// groups ahead of the consumer. Next must be called from one goroutine;
// Close may be called from any goroutine at any time.
type Reader struct {
	plan *shuffle.Plan
	snap *meta.Snapshot
	src  Source
	cfg  config

	ctx    context.Context
	cancel context.CancelFunc

	// completed carries fetched groups in completion order. A group holds
	// its sem slot from dispatch until Next installs it, so at most window
	// results are ever in the channel or held: buffered to the window,
	// workers never block on it.
	completed chan groupResult
	sem       chan struct{} // bounds groups in flight or ready ahead
	wg        sync.WaitGroup
	closing   sync.Once

	// Tail-latency machinery (hedge.go).
	delay    delayTracker   // adaptive hedge delay: max(floor, rolling p99)
	attempts attemptTracker // joins straggling hedge/deadline attempts on Close

	// Consumer state, owned by Next's caller.
	cur      [][]byte      // current group's payloads, nil'd as consumed
	curStart int           // plan position of cur[0]
	curGroup int           // plan group index of cur
	offset   int           // next index within cur
	err      error         // terminal error (never io.EOF)
	held     []groupResult // completed groups too far ahead to serve yet, in completion order
	served   []bool        // per-group served marks
	low      int           // smallest unserved group index
}

// NewReader starts the pipeline over one epoch plan. The snapshot must be
// the one the plan was built from; src decides where the bytes come from.
func NewReader(plan *shuffle.Plan, snap *meta.Snapshot, src Source, opts ...Option) *Reader {
	cfg := config{ctx: context.Background(), window: 2, hedgeFloor: hedgeDelayFloor}
	for _, fn := range opts {
		fn(&cfg)
	}
	ctx, cancel := context.WithCancel(cfg.ctx)
	r := &Reader{
		plan: plan, snap: snap, src: src, cfg: cfg,
		ctx: ctx, cancel: cancel,
		served: make([]bool, len(plan.Groups)),
	}
	r.delay.floor = cfg.hedgeFloor
	if cfg.window > 0 && len(plan.Groups) > 0 {
		r.start()
	}
	return r
}

// start launches the dispatcher and fetch workers. The dispatcher admits
// one group per window slot; the consumer releases a slot as it takes
// each group, keeping the window sliding. Workers fetch whole groups
// concurrently, so a window of w overlaps up to w group fetches.
func (r *Reader) start() {
	nGroups := len(r.plan.Groups)
	r.completed = make(chan groupResult, r.cfg.window)
	r.sem = make(chan struct{}, r.cfg.window)
	jobs := make(chan int)
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer close(jobs)
		for g := range nGroups {
			select {
			case r.sem <- struct{}{}:
			case <-r.ctx.Done():
				return
			}
			select {
			case jobs <- g:
			case <-r.ctx.Done():
				return
			}
		}
	}()
	workers := min(r.cfg.window, nGroups)
	for range workers {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			for g := range jobs {
				r.completed <- r.fetchGroup(g)
			}
		}()
	}
}

// fetchGroup runs one traced group fetch — hedged and deadline-bounded
// when configured (hedge.go) — and records the shared fetch metrics.
// Both the prefetch workers and the window=0 inline path go through it,
// so diesel_epoch_group_fetch_seconds is populated in every
// configuration, including the synchronous baseline the benchmarks
// compare pipelined runs against.
func (r *Reader) fetchGroup(g int) groupResult {
	// Each group fetch is its own trace root: one epoch is unbounded in
	// spans, one group is not, and the slow unit worth attributing is
	// the group.
	gctx, gsp := tracing.StartSpan(r.ctx, "epoch.group")
	if gsp != nil {
		gsp.SetAttr("group", strconv.Itoa(g))
		gs := r.plan.Groups[g]
		gsp.SetAttr("files", strconv.Itoa(gs.End-gs.Start))
		if r.cfg.window <= 0 {
			gsp.SetAttr("window", "0")
		}
	}
	start := time.Now()
	data, err := r.readGroup(gctx, g)
	d := time.Since(start)
	mGroupFetchLat.ObserveDuration(d)
	gsp.SetError(err)
	gsp.End()
	tracing.ObserveSlow(gsp, "diesel_epoch_group_fetch_seconds", d)
	if err == nil {
		mGroups.Inc()
	}
	return groupResult{g: g, data: data, err: err, sp: gsp}
}

// Next returns the next sample in plan order. It returns io.EOF when the
// epoch is complete, ErrClosed after Close or context cancellation, and
// the fetch error that ended the epoch otherwise (also available via Err).
func (r *Reader) Next() (Sample, error) {
	if r.err != nil {
		return Sample{}, r.err
	}
	if r.ctx.Err() != nil {
		// Closed (or caller-cancelled) between calls: don't keep serving
		// the buffered remainder of the current group.
		return Sample{}, r.fail(fmt.Errorf("%w: %w", ErrClosed, context.Cause(r.ctx)))
	}
	for r.cur == nil || r.offset >= len(r.cur) {
		if r.low >= len(r.served) { // every group has been installed
			return Sample{}, io.EOF
		}
		if err := r.advance(); err != nil {
			return Sample{}, err
		}
	}
	pos := r.curStart + r.offset
	s := Sample{
		Pos:   pos,
		Group: r.curGroup,
		Path:  r.snap.FileName(int(r.plan.Files[pos])),
		Data:  r.cur[r.offset],
	}
	r.cur[r.offset] = nil // let consumed payloads be collected mid-group
	r.offset++
	mSamples.Inc()
	return s, nil
}

// advance blocks until a servable group is ready — the earliest-completed
// one whose index is within the reorder window of the oldest unserved
// group, fetched inline when the prefetch window is 0 — and installs it as
// the current group. The time spent blocked here is the pipeline's
// exposed stall — the quantity prefetch exists to hide.
//
// Liveness: the dispatcher admits groups in index order, so the oldest
// unserved group is always dispatched no later than any held group —
// whenever held groups are all too far ahead, the group that would unblock
// them is in flight.
func (r *Reader) advance() error {
	start := time.Now()
	if r.cfg.window <= 0 {
		return r.install(r.fetchGroup(r.low), start)
	}
	limit := r.low + r.cfg.reorder
	for i, res := range r.held {
		if res.g <= limit {
			r.held = append(r.held[:i], r.held[i+1:]...)
			return r.install(res, start)
		}
	}
	for {
		select {
		case res := <-r.completed:
			if res.g <= limit {
				return r.install(res, start)
			}
			r.held = append(r.held, res)
		case <-r.ctx.Done():
			return r.fail(fmt.Errorf("%w: %w", ErrClosed, context.Cause(r.ctx)))
		}
	}
}

// install records the stall, surfaces fetch errors, and makes res's group
// the current group. start is when the consumer began waiting.
func (r *Reader) install(res groupResult, start time.Time) error {
	mStallLat.Since(start)
	// A slow stall means prefetch failed to hide this group's fetch; the
	// exemplar points at that group's trace, which shows why it was slow.
	tracing.ObserveSlow(res.sp, "diesel_epoch_stall_seconds", time.Since(start))
	if res.err != nil {
		if r.ctx.Err() != nil {
			return r.fail(fmt.Errorf("%w: %w", ErrClosed, res.err))
		}
		return r.fail(res.err)
	}
	r.cur = res.data
	r.curStart = r.plan.Groups[res.g].Start
	r.curGroup = res.g
	r.offset = 0
	if res.g > r.low {
		mReorderServed.Inc()
	}
	r.served[res.g] = true
	for r.low < len(r.served) && r.served[r.low] {
		r.low++
	}
	if r.sem != nil {
		<-r.sem // the window slot this group held since it was dispatched
	}
	return nil
}

// fail records the terminal error (consumer-owned state), tears the
// pipeline down and returns the error.
func (r *Reader) fail(err error) error {
	r.err = err
	r.Close()
	return err
}

// Err returns the error that terminated the epoch, or nil after a clean
// run (io.EOF from Next is completion, not an error). Like Next, it
// belongs to the consuming goroutine.
func (r *Reader) Err() error {
	if errors.Is(r.err, ErrClosed) && r.cfg.ctx.Err() == nil {
		// Closed locally, not by the caller's context: not a data error.
		return nil
	}
	return r.err
}

// Close cancels the pipeline and waits for its goroutines to exit. Safe
// to call multiple times and concurrently with Next (which then returns
// ErrClosed). Close only cancels and waits; all iterator state stays
// owned by the consuming goroutine.
func (r *Reader) Close() error {
	r.closing.Do(func() { r.cancel() })
	r.wg.Wait()
	// Join straggling hedge/deadline attempts: their contexts are
	// cancelled (r.ctx is their ancestor), so each unwinds within one RPC
	// abort, and waiting here keeps the loser's goroutine, span and
	// buffers from outliving the reader.
	r.attempts.shutdown()
	return nil
}
