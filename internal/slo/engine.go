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

// objState is one objective plus its window samplers and breach latch.
type objState struct {
	o        Objective
	hists    []*obs.HistWindow
	bad      *obs.CounterWindow
	good     *obs.CounterWindow
	breached bool
	lastFire time.Time
	fires    *obs.Counter
}

// ObjectiveStatus is the point-in-time evaluation of one objective, as
// shown in /debug/diag and embedded in bundle manifests.
type ObjectiveStatus struct {
	Name      string  `json:"name"`
	Kind      string  `json:"kind"` // "latency" or "ratio"
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
	// Ring capacity to span the slow window at the tick rate, capped so
	// a pathological tick/window pair cannot balloon memory.
	capacity := int(cfg.SlowWindow/cfg.Tick) + 2
	if capacity > 8192 {
		capacity = 8192
	}
	e := &Engine{cfg: cfg}
	for _, o := range cfg.Objectives {
		st := &objState{o: o}
		if o.latency() {
			for _, h := range o.Hists {
				st.hists = append(st.hists, obs.NewHistWindow(h, capacity))
			}
		} else {
			st.bad = obs.NewCounterWindow(capacity, o.Bad...)
			st.good = obs.NewCounterWindow(capacity, o.Good...)
		}
		st.fires = cfg.Registry.Counter("diesel_slo_breaches_total",
			"SLO breach events fired by the slo engine, by objective.",
			obs.L("objective", o.Name))
		e.objs = append(e.objs, st)
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
// tests can drive the engine without real time.
func (e *Engine) Evaluate(now time.Time) {
	status := make([]ObjectiveStatus, 0, len(e.objs))
	for _, st := range e.objs {
		status = append(status, e.evalObjective(st, now))
	}
	e.mu.Lock()
	e.status = status
	e.mu.Unlock()
}

// evalObjective ticks st's windows, computes both burns, and fires a
// breach event on the rising edge (or after Cooldown while still
// breached).
func (e *Engine) evalObjective(st *objState, now time.Time) ObjectiveStatus {
	s := ObjectiveStatus{Name: st.o.Name, Kind: "ratio", Budget: st.o.Budget}
	if st.o.latency() {
		s.Kind = "latency"
		var fast, slow obs.HistSnapshot
		for _, w := range st.hists {
			w.Tick(now)
			fast.Merge(w.Over(e.cfg.FastWindow))
			slow.Merge(w.Over(e.cfg.SlowWindow))
		}
		s.FastCount, s.SlowCount = fast.Count, slow.Count
		s.FastBurn = e.burnLatency(st.o, fast)
		s.SlowBurn = e.burnLatency(st.o, slow)
	} else {
		st.bad.Tick(now)
		st.good.Tick(now)
		fb := st.bad.Over(e.cfg.FastWindow)
		fg := st.good.Over(e.cfg.FastWindow)
		sb := st.bad.Over(e.cfg.SlowWindow)
		sg := st.good.Over(e.cfg.SlowWindow)
		s.FastCount, s.SlowCount = fb+fg, sb+sg
		s.FastBurn = e.burnRatio(st.o, fb, fg)
		s.SlowBurn = e.burnRatio(st.o, sb, sg)
	}

	breach := s.FastBurn >= fastBurn && s.SlowBurn >= slowBurn
	if breach && (!st.breached || now.Sub(st.lastFire) >= e.cfg.Cooldown) {
		st.lastFire = now
		st.fires.Inc()
		obs.Publish("slo-breach", fmt.Sprintf("objective %s burning: fast %.1fx, slow %.1fx (budget %.3g)",
			st.o.Name, s.FastBurn, s.SlowBurn, st.o.Budget),
			"objective", st.o.Name,
			"fast_burn", fmt.Sprintf("%.2f", s.FastBurn),
			"slow_burn", fmt.Sprintf("%.2f", s.SlowBurn))
	}
	st.breached = breach
	s.Breached = breach
	if !st.lastFire.IsZero() {
		s.LastFireNS = st.lastFire.UnixNano()
	}
	return s
}

func (e *Engine) burnLatency(o Objective, s obs.HistSnapshot) float64 {
	if s.Count < o.MinCount || o.Budget <= 0 {
		return 0
	}
	return s.FractionAbove(o.ThresholdNS) / o.Budget
}

func (e *Engine) burnRatio(o Objective, bad, good uint64) float64 {
	total := bad + good
	if total < o.MinCount || total == 0 || o.Budget <= 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / o.Budget
}

// Status returns the most recent evaluation of every objective.
func (e *Engine) Status() []ObjectiveStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]ObjectiveStatus(nil), e.status...)
}
