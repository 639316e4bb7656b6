// Package loadgen is DIESEL's open-loop load harness: it schedules
// request arrivals on a fixed timeline (constant or Poisson rate, spread
// over phase-offset generators) and measures every operation from its
// *intended* start to its completion, so a stalled server inflates the
// recorded tail instead of silently throttling the generator — the
// coordinated-omission trap that closed-loop harnesses (classic "N
// workers in a hot loop" drivers) fall into.
//
// The package has three layers:
//
//   - Recorder: sharded, mergeable latency/outcome recording tagged by
//     fault-schedule phase (this file);
//   - run: the open-loop (and, for comparison, closed-loop) runner over
//     a weighted operation mix with a scripted fault Schedule;
//   - StartStack/RunEmbedded: a real diesel-server+kvnode deployment on
//     loopback TCP with workload mixes over the existing client, driven
//     by run and summarised into a machine-readable capacity Report
//     that cmd/benchguard gates in CI (its only gate: allocation
//     budgets are tier-1 tests, internal/testkit).
package loadgen

import (
	"sync/atomic"
	"time"

	"diesel/internal/obs"
)

// latencies is one shard of one phase's recording: an open-loop
// (intended-start → completion) histogram, a service-time (actual-start →
// completion) histogram, and an error count. Shards are written by one
// executor each and merged at snapshot time, so the hot path is two
// lock-free histogram observes.
type latencies struct {
	open obs.Histogram
	svc  obs.Histogram
	errs atomic.Uint64
}

// phaseRec accumulates one phase's observations across executor shards.
type phaseRec struct {
	name       string
	start, end time.Duration // window bounds; 0,0 for the run-wide phase
	shards     []latencies
	maxOpenNS  atomic.Int64
	maxSvcNS   atomic.Int64
}

func newPhaseRec(name string, start, end time.Duration, shards int) *phaseRec {
	return &phaseRec{name: name, start: start, end: end, shards: make([]latencies, shards)}
}

func (p *phaseRec) record(shard int, openLat, svcLat time.Duration, err error) {
	s := &p.shards[shard]
	s.open.ObserveDuration(openLat)
	s.svc.ObserveDuration(svcLat)
	if err != nil {
		s.errs.Add(1)
	}
	atomicMax(&p.maxOpenNS, int64(openLat))
	atomicMax(&p.maxSvcNS, int64(svcLat))
}

func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// PhaseStats is a merged snapshot of one phase.
type PhaseStats struct {
	Name       string
	Start, End time.Duration
	Open, Svc  obs.HistSnapshot
	Errors     uint64
	MaxOpen    time.Duration
	MaxSvc     time.Duration
}

func (p *phaseRec) snapshot() PhaseStats {
	st := PhaseStats{
		Name: p.name, Start: p.start, End: p.end,
		MaxOpen: time.Duration(p.maxOpenNS.Load()),
		MaxSvc:  time.Duration(p.maxSvcNS.Load()),
	}
	for i := range p.shards {
		st.Open.Merge(p.shards[i].open.Snapshot())
		st.Svc.Merge(p.shards[i].svc.Snapshot())
		st.Errors += p.shards[i].errs.Load()
	}
	return st
}

// Recorder tags every observation with the fault-schedule window active
// at the operation's *intended* start (not its completion: a request that
// was due during a fault window belongs to that window even if it limps
// home after it closes). Observations outside every window land in the
// "steady" phase; everything additionally lands in the run-wide total.
type Recorder struct {
	sched   Schedule
	total   *phaseRec
	steady  *phaseRec
	windows []*phaseRec // aligned with sched
}

// newRecorder builds a recorder with one shard per executor. Pass the
// executor index to record; executors must not share a shard index
// concurrently with a different executor (the histograms themselves are
// atomic, sharding just avoids cache-line ping-pong on the max trackers).
func newRecorder(shards int, sched Schedule) *Recorder {
	if shards < 1 {
		shards = 1
	}
	r := &Recorder{
		sched:  sched,
		total:  newPhaseRec("total", 0, 0, shards),
		steady: newPhaseRec("steady", 0, 0, shards),
	}
	for _, f := range sched {
		r.windows = append(r.windows, newPhaseRec(f.Name, f.Start, f.Start+f.Dur, shards))
	}
	return r
}

// record stores one completed operation: intended is the arrival's offset
// on the run timeline, openLat the intended-start→completion latency,
// svcLat the actual-start→completion service time.
func (r *Recorder) record(shard int, intended time.Duration, openLat, svcLat time.Duration, err error) {
	r.total.record(shard, openLat, svcLat, err)
	if i := r.sched.windowAt(intended); i >= 0 {
		r.windows[i].record(shard, openLat, svcLat, err)
	} else {
		r.steady.record(shard, openLat, svcLat, err)
	}
}

// Total returns the merged run-wide stats.
func (r *Recorder) Total() PhaseStats { return r.total.snapshot() }

// phases returns the steady phase followed by one entry per fault window,
// in schedule order.
func (r *Recorder) phases() []PhaseStats {
	out := []PhaseStats{r.steady.snapshot()}
	for _, w := range r.windows {
		out = append(out, w.snapshot())
	}
	return out
}
