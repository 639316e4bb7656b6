package slo

import (
	"testing"
	"time"

	"diesel/internal/obs"
)

// drive ticks the engine once per simulated second from t0.
func drive(e *Engine, t0 time.Time, seconds int, perTick func(i int)) time.Time {
	now := t0
	for i := 0; i < seconds; i++ {
		perTick(i)
		now = now.Add(time.Second)
		e.Evaluate(now)
	}
	return now
}

func TestEngineLatencyBreach(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Duration("t_lat_seconds", "test latency")
	obj := Objective{
		Name:        "read-p99",
		Hists:       []*obs.Histogram{h},
		ThresholdNS: uint64(10 * time.Millisecond),
		Budget:      0.01,
		MinCount:    10,
	}
	e := NewEngine(EngineConfig{
		Registry:   reg,
		Objectives: []Objective{obj},
		FastWindow: 3 * time.Second,
		SlowWindow: 10 * time.Second,
		Tick:       time.Second,
		Cooldown:   time.Hour,
	})

	obs.ResetEvents()
	obs.EnableEvents(true)
	defer obs.EnableEvents(false)
	defer obs.ResetEvents()

	t0 := time.Unix(10_000, 0)
	// Healthy traffic: 100 fast reads/s, nothing breaches.
	now := drive(e, t0, 6, func(int) {
		for j := 0; j < 100; j++ {
			h.Observe(uint64(time.Millisecond))
		}
	})
	st := e.Status()
	if len(st) != 1 || st[0].Breached {
		t.Fatalf("healthy traffic breached: %+v", st)
	}

	// Incident: half the reads take 50ms. Bad fraction 0.5 / budget
	// 0.01 = burn 50 on both windows once the fast window fills.
	drive(e, now, 6, func(int) {
		for j := 0; j < 50; j++ {
			h.Observe(uint64(time.Millisecond))
			h.Observe(uint64(50 * time.Millisecond))
		}
	})
	st = e.Status()
	if !st[0].Breached {
		t.Fatalf("incident did not breach: %+v", st[0])
	}
	if st[0].FastBurn < 5 {
		t.Fatalf("fast burn = %v, want >= 5", st[0].FastBurn)
	}

	evs := obs.RecentEvents(0)
	var breaches int
	for _, ev := range evs {
		if ev.Kind == "slo-breach" && ev.Attrs["objective"] == "read-p99" {
			breaches++
		}
	}
	if breaches != 1 {
		t.Fatalf("breach events = %d, want exactly 1 (cooldown latch)", breaches)
	}
	if got := reg.Counter("diesel_slo_breaches_total", "", obs.L("objective", "read-p99")).Load(); got != 1 {
		t.Fatalf("diesel_slo_breaches_total = %d, want 1", got)
	}
}

func TestEngineRatioObjective(t *testing.T) {
	reg := obs.NewRegistry()
	bad := reg.Counter("t_miss_total", "misses")
	// Two good counters, summed by the window: were only the first read,
	// the healthy phase below would read 50% misses and breach.
	hitA := reg.Counter("t_hit_total", "hits", obs.L("source", "a"))
	hitB := reg.Counter("t_hit_total", "hits", obs.L("source", "b"))
	obj := Objective{
		Name:     "hit-rate",
		Bad:      []*obs.Counter{bad},
		Good:     []*obs.Counter{hitA, hitB},
		Budget:   0.05, // tolerate 5% misses
		MinCount: 10,
	}
	e := NewEngine(EngineConfig{
		Registry:   reg,
		Objectives: []Objective{obj},
		FastWindow: 2 * time.Second,
		SlowWindow: 6 * time.Second,
		Tick:       time.Second,
		Cooldown:   time.Hour,
	})

	t0 := time.Unix(20_000, 0)
	// 10% misses: burn 2, under the fast threshold of 10.
	now := drive(e, t0, 5, func(int) {
		bad.Add(10)
		hitA.Add(10)
		hitB.Add(80)
	})
	if st := e.Status(); st[0].Breached || st[0].FastCount != 200 {
		t.Fatalf("10%% misses: %+v, want healthy over 200 fast-window events", st[0])
	}
	// 80% misses: burn 16 fast, and the slow window fills with it.
	drive(e, now, 6, func(int) {
		bad.Add(80)
		hitA.Add(10)
		hitB.Add(10)
	})
	if st := e.Status(); !st[0].Breached {
		t.Fatalf("80%% misses did not breach: %+v", st[0])
	}
}

func TestEngineMinCountSuppression(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Duration("t_idle_seconds", "idle latency")
	obj := Objective{
		Name:        "idle",
		Hists:       []*obs.Histogram{h},
		ThresholdNS: uint64(time.Millisecond),
		Budget:      0.01,
		MinCount:    100,
	}
	e := NewEngine(EngineConfig{
		Registry:   reg,
		Objectives: []Objective{obj},
		FastWindow: 2 * time.Second,
		SlowWindow: 4 * time.Second,
		Tick:       time.Second,
	})
	// One terrible observation per tick — but far below MinCount.
	drive(e, time.Unix(30_000, 0), 6, func(int) {
		h.Observe(uint64(time.Second))
	})
	if st := e.Status(); st[0].Breached || st[0].FastBurn != 0 {
		t.Fatalf("idle process paged: %+v", st[0])
	}
}

func TestObjectiveHelpers(t *testing.T) {
	reg := obs.NewRegistry()
	for _, o := range []Objective{
		ReadLatencyObjective(reg, 50*time.Millisecond, 0.01),
		EpochStallObjective(reg, 10*time.Millisecond, 0.01),
		QuotaRejectionObjective(reg, 0.05, "anon", "alice"),
	} {
		if o.Name == "" || o.Budget <= 0 {
			t.Fatalf("malformed objective: %+v", o)
		}
		if o.latency() && (o.ThresholdNS == 0 || len(o.Hists) == 0) {
			t.Fatalf("malformed latency objective: %+v", o)
		}
		if !o.latency() && len(o.Bad) == 0 {
			t.Fatalf("malformed ratio objective: %+v", o)
		}
	}
	// The helpers must attach to the canonical families: registering
	// the wire-served histogram again yields the same instance.
	o := ReadLatencyObjective(reg, 50*time.Millisecond, 0.01)
	again := reg.Duration("diesel_wire_served_seconds", "", obs.L("method", "dsl.get"))
	if o.Hists[0] != again {
		t.Fatal("ReadLatencyObjective did not attach to the registered histogram")
	}
}
