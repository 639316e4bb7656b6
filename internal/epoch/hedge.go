package epoch

// Tail-latency controls for group fetches: hedged requests and per-group
// deadlines. A straggling chunk fetch — one slow disk read, one loaded
// server — stalls the whole training loop once the prefetch window
// drains, so instead of waiting it out the reader reissues the group
// through a secondary Source (or the primary again with a fresh context)
// after an adaptive delay, takes whichever attempt finishes first, and
// cancels the loser. The delay tracks the rolling p99 of this reader's
// own group-fetch attempts (clamped below by a fixed floor), the
// "tail at scale" policy: a hedge issued at p99 adds ~1% extra load but
// caps the stall of the slowest percentile near 2× the typical fetch.
//
// WithGroupDeadline composes with hedging: each attempt runs under its
// own timeout, so a wedged fetch degrades to the hedge (or, with hedging
// off, to one fresh-context retry) instead of pinning a window slot until
// the epoch's context dies.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"diesel/internal/obs"
)

// hedgeMinSamples is how many attempt latencies the rolling tracker needs
// before the p99 estimate participates in the hedge delay; below it the
// floor alone decides.
const hedgeMinSamples = 8

// hedgeDelayFloor is the minimum hedge delay. It carries the cold start —
// before the rolling p99 has samples — and keeps microsecond-scale sources
// (all-local cache hits) from hedging every read; once warm, the rolling
// p99 dominates whenever it is larger.
const hedgeDelayFloor = time.Millisecond

// delayTracker derives the hedge delay from the latencies of this
// reader's own successful fetch attempts: max(floor, rolling p99).
// Loser attempts are never observed, so the estimate converges to the
// typical distribution instead of chasing the stragglers it hedges away.
type delayTracker struct {
	hist  obs.Histogram // nanosecond observations; zero value usable
	floor time.Duration
}

func (t *delayTracker) observe(d time.Duration) { t.hist.ObserveDuration(d) }

func (t *delayTracker) delay() time.Duration {
	s := t.hist.Snapshot()
	if s.Count < hedgeMinSamples {
		return t.floor
	}
	if p99 := time.Duration(s.Quantile(0.99)); p99 > t.floor {
		return p99
	}
	return t.floor
}

// attemptTracker lets Close wait for straggling fetch attempts without
// racing WaitGroup.Add against WaitGroup.Wait: spawn refuses new attempts
// once shutdown began, and wait returns only after every launched attempt
// (winner and loser alike) has unwound — so no goroutine, borrowed span
// or half-finished RPC outlives the reader.
type attemptTracker struct {
	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

// spawn runs fn on its own goroutine, or reports false when the tracker
// is already shut down.
func (a *attemptTracker) spawn(fn func()) bool {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return false
	}
	a.wg.Add(1)
	a.mu.Unlock()
	go func() {
		defer a.wg.Done()
		fn()
	}()
	return true
}

// shutdown blocks until every spawned attempt has exited; further spawns
// are refused. The caller must have cancelled the attempts' contexts
// first, or shutdown waits a full fetch.
func (a *attemptTracker) shutdown() {
	a.mu.Lock()
	a.closed = true
	a.mu.Unlock()
	a.wg.Wait()
}

// attemptResult is one fetch attempt's outcome; which distinguishes the
// primary (0) from the hedge/fallback (1).
type attemptResult struct {
	data  [][]byte
	err   error
	which int
	dur   time.Duration // the attempt's own service time
}

// readGroup fetches one group through the configured tail-latency
// machinery. With neither hedging nor a deadline configured it is exactly
// src.ReadGroup — the default path stays allocation- and
// goroutine-identical to the plain reader.
func (r *Reader) readGroup(ctx context.Context, g int) ([][]byte, error) {
	if !r.cfg.hedge && r.cfg.deadline <= 0 {
		return r.src.ReadGroup(ctx, r.plan, g)
	}
	return r.readGroupHedged(ctx, g)
}

// readGroupHedged runs up to two attempts with first-success-wins
// semantics:
//
//   - the primary attempt starts immediately (under WithGroupDeadline's
//     timeout when configured);
//   - with hedging on, a second attempt starts once the adaptive delay
//     elapses — or immediately if the primary fails first;
//   - with hedging off but a deadline on, a primary deadline trip earns
//     one fresh-context retry (the degradation WithGroupDeadline
//     promises) while other primary errors keep today's fail-fast path.
//
// The loser's context is cancelled on return; its goroutine drains into a
// buffered channel and is joined by Close via the attempt tracker, and
// its payloads are plain GC-owned slices (sources never hand the epoch
// layer pooled buffers), so dropping them leaks nothing.
func (r *Reader) readGroupHedged(ctx context.Context, g int) ([][]byte, error) {
	results := make(chan attemptResult, 2) // attempts never block sending
	var cancels [2]context.CancelFunc
	defer func() {
		for _, cancel := range cancels {
			if cancel != nil {
				cancel()
			}
		}
	}()

	launch := func(which int, src Source) bool {
		var actx context.Context
		var cancel context.CancelFunc
		if r.cfg.deadline > 0 {
			actx, cancel = context.WithTimeout(ctx, r.cfg.deadline)
		} else {
			actx, cancel = context.WithCancel(ctx)
		}
		cancels[which] = cancel
		ok := r.attempts.spawn(func() {
			start := time.Now()
			data, err := src.ReadGroup(actx, r.plan, g)
			results <- attemptResult{data: data, err: err, which: which, dur: time.Since(start)}
		})
		if !ok {
			cancel()
		}
		return ok
	}

	secondary := r.src
	if r.cfg.hedgeSrc != nil {
		secondary = r.cfg.hedgeSrc
	}

	if !launch(0, r.src) {
		return nil, fmt.Errorf("%w: %w", ErrClosed, context.Cause(r.ctx))
	}

	var hedgeC <-chan time.Time
	if r.cfg.hedge {
		timer := time.NewTimer(r.delay.delay())
		defer timer.Stop()
		hedgeC = timer.C
	}

	hedged := false
	var firstErr error
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()

		case <-hedgeC:
			hedgeC = nil
			if launch(1, secondary) {
				hedged = true
				mHedges.Inc()
			}

		case res := <-results:
			if res.err == nil {
				if hedged && r.cfg.hedge {
					if res.which == 1 {
						mHedgeWins.Inc()
					} else {
						mHedgeWasted.Inc()
					}
				}
				r.delay.observe(res.dur)
				return res.data, nil
			}

			deadlined := r.cfg.deadline > 0 && ctx.Err() == nil &&
				errors.Is(res.err, context.DeadlineExceeded)
			if deadlined {
				mDeadlineTrips.Inc()
			}
			if res.which == 0 && !hedged {
				hedgeC = nil // the failure is the hedge trigger now
				// A second attempt is warranted when hedging is on (the
				// secondary may succeed where the primary failed) or when
				// the primary was cut down by its own deadline (the
				// promised degrade-to-fallback). Plain primary errors
				// with hedging off keep the established fail-fast
				// semantics.
				if r.cfg.hedge || deadlined {
					if launch(1, secondary) {
						hedged = true
						if r.cfg.hedge {
							mHedges.Inc()
						}
						firstErr = res.err
						continue
					}
				}
				return nil, res.err
			}
			if firstErr == nil {
				// Hedge failed while the primary is still in flight:
				// remember why and keep waiting for the primary.
				firstErr = res.err
				continue
			}
			// Both attempts have failed.
			return nil, fmt.Errorf("epoch: group %d: both attempts failed: %w", g,
				errors.Join(firstErr, res.err))
		}
	}
}
