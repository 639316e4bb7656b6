package slo

import (
	"fmt"
	"sync"
	"time"

	"diesel/internal/obs"
)

// EngineConfig tunes the SLO evaluation loop. Zero values take the
// documented defaults, sized for a production server; tests and the CI
// load harness shrink the windows to seconds.
type EngineConfig struct {
	// Registry backs the engine's breach counter. Defaults to
	// obs.Default().
	Registry *obs.Registry

	// Objectives to evaluate.
	Objectives []Objective

	// FastWindow/SlowWindow are the two burn-rate windows (defaults
	// 1m / 30m). A breach requires both to burn: the fast window makes
	// detection quick, the slow window keeps a short blip from paging.
	FastWindow time.Duration
	SlowWindow time.Duration

	// Tick is the sampling interval (default 5s).
	Tick time.Duration

	// Cooldown suppresses re-firing an objective's breach event while
	// it stays breached (default 2m).
	Cooldown time.Duration
}

// The burn-rate thresholds: an objective breaches when its fast-window
// burn is at least fastBurn AND its slow-window burn at least slowBurn.
const (
	fastBurn = 10
	slowBurn = 1
)

func (c *EngineConfig) defaults() {
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
	if c.FastWindow <= 0 {
		c.FastWindow = time.Minute
	}
	if c.SlowWindow <= 0 {
		c.SlowWindow = 30 * time.Minute
	}
	if c.Tick <= 0 {
		c.Tick = 5 * time.Second
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * time.Minute
	}
}

// objState is one objective plus its readings and breach latch.
type objState struct {
	o        Objective
	readings readings
	breached bool
	lastFire time.Time
	fires    *obs.Counter
}

// reading is one timestamped sample of an objective's cumulative counts.
type reading struct {
	t     time.Time
	bad   float64
	total uint64
}

// readings are an objective's most recent readings, oldest first. Their
// capacity is the retention: add drops the oldest once it is reached.
type readings []reading

func (rs *readings) add(x reading) {
	if len(*rs) == cap(*rs) {
		*rs = append((*rs)[:0], (*rs)[1:]...)
	}
	*rs = append(*rs, x)
}

// over returns the events across roughly the trailing d: the newest
// reading minus the newest reading at least d older. When the readings
// do not span d yet (process younger than the window, or capacity too
// small) it falls back to the oldest reading, so early answers cover a
// shorter span. With fewer than two readings there are no events.
func (rs readings) over(d time.Duration) (bad float64, total uint64) {
	if len(rs) < 2 {
		return 0, 0
	}
	newest, base := rs[len(rs)-1], rs[0]
	for i := len(rs) - 2; i >= 0; i-- {
		if newest.t.Sub(rs[i].t) >= d {
			base = rs[i]
			break
		}
	}
	if newest.total <= base.total {
		return 0, 0
	}
	total = newest.total - base.total
	// Rounding in the interpolated bad counts must not push the fraction
	// outside [0, 1].
	bad = min(max(newest.bad-base.bad, 0), float64(total))
	return bad, total
}

// burn is a window's bad fraction divided by the budget. A window with
// fewer than MinCount events burns nothing.
func burn(o Objective, bad float64, total uint64) float64 {
	if total == 0 || total < o.MinCount || o.Budget <= 0 {
		return 0
	}
	return bad / float64(total) / o.Budget
}

// ObjectiveStatus is the point-in-time evaluation of one objective, as
// shown in /debug/diag and embedded in bundle manifests.
type ObjectiveStatus struct {
	Name      string  `json:"name"`
	Budget    float64 `json:"budget"`
	FastBurn  float64 `json:"fast_burn"`
	SlowBurn  float64 `json:"slow_burn"`
	FastCount uint64  `json:"fast_count"`
	SlowCount uint64  `json:"slow_count"`
	Breached  bool    `json:"breached"`
	// LastFireNS is the UnixNano of the last breach event (0 = never).
	LastFireNS int64 `json:"last_fire_ns,omitempty"`
}

// Engine polls objective metrics on a ticker, computes multi-window burn
// rates, and publishes an "slo-breach" event into the obs event ring when
// an objective burns. It holds no hot path; stopping it (or never
// starting it) removes every cost.
type Engine struct {
	cfg  EngineConfig
	objs []*objState

	mu     sync.Mutex
	status []ObjectiveStatus
	stop   chan struct{}
	done   chan struct{}
}

// NewEngine builds an engine; Start begins evaluation.
func NewEngine(cfg EngineConfig) *Engine {
	cfg.defaults()
	// Readings kept per objective: enough to span the slow window at the
	// tick rate, capped so a pathological tick/window pair cannot
	// balloon memory.
	capacity := int(cfg.SlowWindow/cfg.Tick) + 2
	if capacity > 8192 {
		capacity = 8192
	}
	e := &Engine{cfg: cfg}
	for _, o := range cfg.Objectives {
		e.objs = append(e.objs, &objState{
			o:        o,
			readings: make(readings, 0, capacity),
			fires: cfg.Registry.Counter("diesel_slo_breaches_total",
				"SLO breach events fired by the slo engine, by objective.",
				obs.L("objective", o.Name)),
		})
	}
	return e
}

// Start launches the evaluation loop. Safe to call once.
func (e *Engine) Start() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stop != nil {
		return
	}
	e.stop = make(chan struct{})
	e.done = make(chan struct{})
	go e.loop(e.stop, e.done)
}

// Stop halts the loop and waits for it to exit.
func (e *Engine) Stop() {
	e.mu.Lock()
	stop, done := e.stop, e.done
	e.stop, e.done = nil, nil
	e.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

func (e *Engine) loop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(e.cfg.Tick)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			e.Evaluate(now)
		}
	}
}

// Evaluate runs one sampling+evaluation pass stamped now. Exposed so
// tests can drive the engine without real time; once Start has run, the
// loop is its only caller. Breach events go out after the pass's status
// is stored, so a subscriber that reads Status (the watchdog's bundle
// manifest) sees the breach that woke it.
func (e *Engine) Evaluate(now time.Time) {
	status := make([]ObjectiveStatus, 0, len(e.objs))
	var fired []int
	for i, st := range e.objs {
		s, fire := e.evalObjective(st, now)
		status = append(status, s)
		if fire {
			fired = append(fired, i)
		}
	}
	e.mu.Lock()
	e.status = status
	e.mu.Unlock()
	for _, i := range fired {
		s := status[i]
		e.objs[i].fires.Inc()
		obs.Publish("slo-breach", fmt.Sprintf("objective %s burning: fast %.1fx, slow %.1fx (budget %.3g)",
			s.Name, s.FastBurn, s.SlowBurn, s.Budget),
			"objective", s.Name,
			"fast_burn", fmt.Sprintf("%.2f", s.FastBurn),
			"slow_burn", fmt.Sprintf("%.2f", s.SlowBurn))
	}
}

// evalObjective takes a reading of st's counts, computes both burns, and
// reports whether a breach fires: on the rising edge, or after Cooldown
// while still breached.
func (e *Engine) evalObjective(st *objState, now time.Time) (ObjectiveStatus, bool) {
	r := reading{t: now}
	if st.o.counts != nil {
		r.bad, r.total = st.o.counts()
	}
	st.readings.add(r)
	s := ObjectiveStatus{Name: st.o.Name, Budget: st.o.Budget}
	fastBad, fastTotal := st.readings.over(e.cfg.FastWindow)
	slowBad, slowTotal := st.readings.over(e.cfg.SlowWindow)
	s.FastCount, s.SlowCount = fastTotal, slowTotal
	s.FastBurn = burn(st.o, fastBad, fastTotal)
	s.SlowBurn = burn(st.o, slowBad, slowTotal)

	breach := s.FastBurn >= fastBurn && s.SlowBurn >= slowBurn
	fire := breach && (!st.breached || now.Sub(st.lastFire) >= e.cfg.Cooldown)
	if fire {
		st.lastFire = now
	}
	st.breached = breach
	s.Breached = breach
	if !st.lastFire.IsZero() {
		s.LastFireNS = st.lastFire.UnixNano()
	}
	return s, fire
}

// Status returns the most recent evaluation of every objective.
func (e *Engine) Status() []ObjectiveStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]ObjectiveStatus(nil), e.status...)
}
