package server

import (
	"context"
	"sync"

	"diesel/internal/obs"
)

// FairGate bounds how many expensive reads execute concurrently and, once
// saturated, dispatches waiting requests across jobs by stride scheduling
// instead of FIFO: each job advances a virtual-time "pass" by 1/weight per
// dispatch, and the waiter with the smallest pass goes next. A job
// hammering the server therefore gets its fair share of dispatch slots,
// not its share of arrivals — the weighted-fair dispatch of the multi-job
// serving plane.
//
// The zero value is an open gate (limit 0 = unlimited, no queueing).
type FairGate struct {
	mu      sync.Mutex
	limit   int
	active  int
	vtime   float64
	weights map[string]float64
	queues  map[string]*fairQueue

	// Waits counts requests that had to queue; Dispatches counts total
	// admissions through a bounded gate.
	waits      *obs.Counter
	dispatches *obs.Counter
	initOnce   sync.Once
}

// fairQueue is one job's FIFO of blocked waiters plus its stride state.
type fairQueue struct {
	waiters []chan struct{}
	pass    float64
}

// SetLimit bounds concurrent dispatches (0 disables the gate). Safe to
// call while requests are in flight; shrinking takes effect as active
// requests drain.
func (g *FairGate) SetLimit(n int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.limit = n
}

// setWeight sets a job's fair-share weight (default 1; higher = more
// dispatch slots under contention).
func (g *FairGate) setWeight(job string, w float64) {
	if w <= 0 {
		w = 1
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.weights == nil {
		g.weights = make(map[string]float64)
	}
	g.weights[job] = w
}

// Weight returns a job's configured fair-share weight (default 1).
func (g *FairGate) Weight(job string) float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.weightOf(job)
}

func (g *FairGate) weightOf(job string) float64 {
	if w, ok := g.weights[job]; ok {
		return w
	}
	return 1
}

func (g *FairGate) initMetrics() {
	g.initOnce.Do(func() {
		g.waits = obs.Default().Counter("diesel_job_fair_waits_total",
			"Read requests that queued at the weighted-fair dispatch gate.")
		g.dispatches = obs.Default().Counter("diesel_job_fair_dispatches_total",
			"Read requests dispatched through a bounded fair gate.")
	})
}

// enter admits one request for job, blocking while the gate is saturated.
// It returns the release function the caller must invoke when the read
// finishes (defer it), or ctx's error if the caller gave up while queued.
func (g *FairGate) enter(ctx context.Context, job string) (func(), error) {
	g.mu.Lock()
	if g.limit <= 0 {
		g.mu.Unlock()
		return func() {}, nil
	}
	g.initMetrics()
	if g.active < g.limit {
		g.active++
		g.dispatches.Inc()
		g.mu.Unlock()
		return g.release, nil
	}
	// Saturated: queue under the job's stride pass. A job that was idle
	// re-enters at the current virtual time so it cannot hoard credit.
	if g.queues == nil {
		g.queues = make(map[string]*fairQueue)
	}
	q := g.queues[job]
	if q == nil {
		q = &fairQueue{pass: g.vtime}
		g.queues[job] = q
	}
	if len(q.waiters) == 0 && q.pass < g.vtime {
		q.pass = g.vtime
	}
	ch := make(chan struct{})
	q.waiters = append(q.waiters, ch)
	g.waits.Inc()
	g.mu.Unlock()

	select {
	case <-ch:
		return g.release, nil
	case <-ctx.Done():
		g.mu.Lock()
		for i, w := range q.waiters {
			if w == ch {
				q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
				g.mu.Unlock()
				return nil, ctx.Err()
			}
		}
		// Already dispatched in the race: hand the slot to the next
		// waiter and report the cancellation.
		g.active--
		g.dispatchLocked()
		g.mu.Unlock()
		return nil, ctx.Err()
	}
}

// release frees one slot and dispatches the next waiter, if any.
func (g *FairGate) release() {
	g.mu.Lock()
	g.active--
	g.dispatchLocked()
	g.mu.Unlock()
}

// dispatchLocked hands a free slot to the queued job with the smallest
// stride pass. Caller holds g.mu.
func (g *FairGate) dispatchLocked() {
	if g.active >= g.limit || g.limit <= 0 {
		return
	}
	var bestJob string
	var best *fairQueue
	for job, q := range g.queues {
		if len(q.waiters) == 0 {
			continue
		}
		if best == nil || q.pass < best.pass {
			bestJob, best = job, q
		}
	}
	if best == nil {
		return
	}
	ch := best.waiters[0]
	best.waiters = best.waiters[1:]
	g.vtime = best.pass
	best.pass += 1 / g.weightOf(bestJob)
	if len(best.waiters) == 0 {
		delete(g.queues, bestJob)
	}
	g.active++
	g.dispatches.Inc()
	close(ch)
}
