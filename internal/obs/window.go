package obs

import (
	"sync"
	"time"
)

// Burn-rate windows. Multi-window SLO alerting needs "what happened over
// the last minute" and "over the last half hour" from metrics that only
// ever accumulate. These samplers snapshot a cumulative Histogram or
// Counter on a caller-driven Tick and answer Over(d) with the delta
// between now and ~d ago. They are poll-side instruments: nothing here
// touches the metric hot paths, so an SLO engine polling at 1–10s adds
// zero cost to instrumented code.

// histSample is one timestamped histogram snapshot.
type histSample struct {
	t time.Time
	s HistSnapshot
}

// HistWindow samples a cumulative Histogram and reports deltas over
// trailing windows. Capacity bounds retention: with ticks every t
// seconds, a capacity-c window spans roughly c*t of history.
type HistWindow struct {
	mu      sync.Mutex
	h       *Histogram
	samples []histSample // ring, oldest at (next - count)
	next    int
	count   int
}

// NewHistWindow wraps h with a sample ring of the given capacity
// (minimum 2: a delta needs two points).
func NewHistWindow(h *Histogram, capacity int) *HistWindow {
	if capacity < 2 {
		capacity = 2
	}
	return &HistWindow{h: h, samples: make([]histSample, capacity)}
}

// Tick records a snapshot stamped now.
func (w *HistWindow) Tick(now time.Time) {
	s := w.h.Snapshot()
	w.mu.Lock()
	w.samples[w.next] = histSample{t: now, s: s}
	w.next = (w.next + 1) % len(w.samples)
	if w.count < len(w.samples) {
		w.count++
	}
	w.mu.Unlock()
}

// at returns the i-th retained sample, oldest first (caller holds mu).
func (w *HistWindow) at(i int) histSample {
	start := w.next - w.count
	if start < 0 {
		start += len(w.samples)
	}
	return w.samples[(start+i)%len(w.samples)]
}

// Over returns the observation delta across roughly the trailing d: the
// newest sample minus the newest sample at least d older. When the ring
// does not span d yet (process younger than the window, or capacity too
// small) it falls back to the oldest retained sample, so early answers
// cover a shorter span. With fewer than two samples the delta is empty.
func (w *HistWindow) Over(d time.Duration) HistSnapshot {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.count < 2 {
		return HistSnapshot{}
	}
	newest := w.at(w.count - 1)
	base := w.at(0)
	// Walk newest-to-oldest for the first sample ≥ d older than newest.
	for i := w.count - 2; i >= 0; i-- {
		c := w.at(i)
		if newest.t.Sub(c.t) >= d {
			base = c
			break
		}
	}
	return subSnapshot(newest.s, base.s)
}

// subSnapshot returns a-b per bucket, clamping underflow to zero (a
// torn concurrent snapshot can momentarily read a bucket lower than an
// earlier one).
func subSnapshot(a, b HistSnapshot) HistSnapshot {
	var out HistSnapshot
	out.Scale = a.Scale
	for i := range a.Counts {
		if a.Counts[i] > b.Counts[i] {
			out.Counts[i] = a.Counts[i] - b.Counts[i]
			out.Count += out.Counts[i]
		}
	}
	if a.Sum > b.Sum {
		out.Sum = a.Sum - b.Sum
	}
	return out
}

// counterSample is one timestamped counter reading.
type counterSample struct {
	t time.Time
	v uint64
}

// CounterWindow samples one or more cumulative Counters (their sum) and
// reports deltas over trailing windows — the ratio-SLO counterpart of
// HistWindow.
type CounterWindow struct {
	mu      sync.Mutex
	cs      []*Counter
	samples []counterSample
	next    int
	count   int
}

// NewCounterWindow wraps the summed counters with a sample ring of the
// given capacity (minimum 2).
func NewCounterWindow(capacity int, cs ...*Counter) *CounterWindow {
	if capacity < 2 {
		capacity = 2
	}
	return &CounterWindow{cs: cs, samples: make([]counterSample, capacity)}
}

func (w *CounterWindow) read() uint64 {
	var v uint64
	for _, c := range w.cs {
		v += c.Load()
	}
	return v
}

// Tick records a reading stamped now.
func (w *CounterWindow) Tick(now time.Time) {
	v := w.read()
	w.mu.Lock()
	w.samples[w.next] = counterSample{t: now, v: v}
	w.next = (w.next + 1) % len(w.samples)
	if w.count < len(w.samples) {
		w.count++
	}
	w.mu.Unlock()
}

func (w *CounterWindow) at(i int) counterSample {
	start := w.next - w.count
	if start < 0 {
		start += len(w.samples)
	}
	return w.samples[(start+i)%len(w.samples)]
}

// Over returns the counter delta across roughly the trailing d (see
// HistWindow.Over for the fallback rule).
func (w *CounterWindow) Over(d time.Duration) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.count < 2 {
		return 0
	}
	newest := w.at(w.count - 1)
	base := w.at(0)
	for i := w.count - 2; i >= 0; i-- {
		c := w.at(i)
		if newest.t.Sub(c.t) >= d {
			base = c
			break
		}
	}
	if newest.v > base.v {
		return newest.v - base.v
	}
	return 0
}
