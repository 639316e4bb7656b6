package slo

import (
	"math"
	"math/rand"
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
		Name:     "read-p99",
		Budget:   0.01,
		MinCount: 10,
		counts:   latencyCounts(10*time.Millisecond, h),
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
	// Two tenants' admissions, summed into all events: were only the
	// first read, the healthy phase below would read 50% rejections and
	// breach.
	obj := QuotaRejectionObjective(reg, 0.05, "a", "b") // tolerate 5% rejections
	obj.MinCount = 10
	bad := reg.Counter("diesel_tenant_rejected_total", "", obs.L("tenant", "a"))
	hitA := reg.Counter("diesel_tenant_admitted_total", "", obs.L("tenant", "a"))
	hitB := reg.Counter("diesel_tenant_admitted_total", "", obs.L("tenant", "b"))
	e := NewEngine(EngineConfig{
		Registry:   reg,
		Objectives: []Objective{obj},
		FastWindow: 2 * time.Second,
		SlowWindow: 6 * time.Second,
		Tick:       time.Second,
		Cooldown:   time.Hour,
	})

	t0 := time.Unix(20_000, 0)
	// 10% rejections: burn 2, under the fast threshold of 10.
	now := drive(e, t0, 5, func(int) {
		bad.Add(10)
		hitA.Add(10)
		hitB.Add(80)
	})
	if st := e.Status(); st[0].Breached || st[0].FastCount != 200 {
		t.Fatalf("10%% rejections: %+v, want healthy over 200 fast-window events", st[0])
	}
	// 80% rejections: burn 16 fast, and the slow window fills with it.
	drive(e, now, 6, func(int) {
		bad.Add(80)
		hitA.Add(10)
		hitB.Add(10)
	})
	if st := e.Status(); !st[0].Breached {
		t.Fatalf("80%% rejections did not breach: %+v", st[0])
	}
}

func TestEngineMinCountSuppression(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Duration("t_idle_seconds", "idle latency")
	obj := Objective{
		Name:     "idle",
		Budget:   0.01,
		MinCount: 100,
		counts:   latencyCounts(time.Millisecond, h),
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

// TestObjectiveHelpers: each constructor attaches to the shared metric
// family, so an observation made through a re-registered series moves
// the objective's counts.
func TestObjectiveHelpers(t *testing.T) {
	reg := obs.NewRegistry()
	read := ReadLatencyObjective(reg, 50*time.Millisecond, 0.01)
	stall := EpochStallObjective(reg, 10*time.Millisecond, 0.01)
	quota := QuotaRejectionObjective(reg, 0.05, "anon", "alice")
	for _, o := range []Objective{read, stall, quota} {
		if o.Name == "" || o.Budget <= 0 || o.MinCount == 0 || o.counts == nil {
			t.Fatalf("malformed objective: %+v", o)
		}
		if bad, total := o.counts(); bad != 0 || total != 0 {
			t.Fatalf("%s: fresh registry reads bad %v total %d, want 0 0", o.Name, bad, total)
		}
	}

	served := reg.Duration("diesel_wire_served_seconds", "", obs.L("method", "dsl.get"))
	served.Observe(uint64(time.Millisecond))
	served.Observe(uint64(time.Second))
	stallH := reg.Duration("diesel_epoch_stall_seconds", "")
	stallH.Observe(uint64(time.Second))
	reg.Counter("diesel_tenant_rejected_total", "", obs.L("tenant", "alice")).Inc()
	reg.Counter("diesel_tenant_admitted_total", "", obs.L("tenant", "anon")).Add(3)

	for _, c := range []struct {
		o     Objective
		bad   float64
		total uint64
	}{
		{read, 1, 2},
		{stall, 1, 1},
		{quota, 1, 4},
	} {
		if bad, total := c.o.counts(); bad != c.bad || total != c.total {
			t.Errorf("%s: counts = %v/%d, want %v/%d", c.o.Name, bad, total, c.bad, c.total)
		}
	}
}

// TestLatencyBurnMatchesWindowHistogram: a latency objective's burn over
// a window equals FractionAbove(threshold)/Budget of a histogram fed only
// that window's observations — the difference of two cumulative bad
// counts is the bad count of the difference. The threshold sits inside a
// bucket, so the interpolated share counts, and the objective spans two
// histograms, so the sum does.
func TestLatencyBurnMatchesWindowHistogram(t *testing.T) {
	const threshold = 10 * time.Millisecond // inside (2^23, 2^24] ns
	reg := obs.NewRegistry()
	ha := reg.Duration("t_a_seconds", "a")
	hb := reg.Duration("t_b_seconds", "b")
	obj := Objective{Name: "lat", Budget: 0.05, MinCount: 1, counts: latencyCounts(threshold, ha, hb)}
	const fast, slow = 3, 8 // seconds
	e := NewEngine(EngineConfig{
		Registry:   reg,
		Objectives: []Objective{obj},
		FastWindow: fast * time.Second,
		SlowWindow: slow * time.Second,
		Tick:       time.Second,
	})

	rng := rand.New(rand.NewSource(7))
	var batches [][]uint64 // observations made before tick i's reading
	want := func(i, window int) float64 {
		var h obs.Histogram
		for j := max(0, i-window) + 1; j <= i; j++ {
			for _, v := range batches[j] {
				h.Observe(v)
			}
		}
		return h.Snapshot().FractionAbove(uint64(threshold)) / obj.Budget
	}
	now := time.Unix(40_000, 0)
	for i := 0; i < 20; i++ {
		var batch []uint64
		for j := 0; j < 30+rng.Intn(40); j++ {
			v := uint64(time.Millisecond) + uint64(rng.Int63n(int64(20*time.Millisecond)))
			if i%5 == 3 {
				v *= 3 // a slow stretch
			}
			batch = append(batch, v)
			if j%2 == 0 {
				ha.Observe(v)
			} else {
				hb.Observe(v)
			}
		}
		batches = append(batches, batch)
		now = now.Add(time.Second)
		e.Evaluate(now)
		st := e.Status()[0]
		if got, w := st.FastBurn, want(i, fast); math.Abs(got-w) > 1e-9 {
			t.Fatalf("tick %d: fast burn %v, window histogram says %v", i, got, w)
		}
		if got, w := st.SlowBurn, want(i, slow); math.Abs(got-w) > 1e-9 {
			t.Fatalf("tick %d: slow burn %v, window histogram says %v", i, got, w)
		}
	}
}

// TestReadingsEmpty: fewer than two readings are no events and burn
// nothing.
func TestReadingsEmpty(t *testing.T) {
	o := Objective{Budget: 0.1, MinCount: 1}
	rs := make(readings, 0, 10)
	if bad, total := rs.over(time.Second); bad != 0 || total != 0 || burn(o, bad, total) != 0 {
		t.Fatalf("no readings: %v/%d", bad, total)
	}
	rs.add(reading{t: time.Unix(1000, 0), bad: 5, total: 10})
	if bad, total := rs.over(time.Second); bad != 0 || total != 0 || burn(o, bad, total) != 0 {
		t.Fatalf("one reading: %v/%d", bad, total)
	}
}

// TestReadingsOver: a window longer than the readings span falls back
// to the oldest one kept, and add keeps the newest cap(readings) of
// them.
func TestReadingsOver(t *testing.T) {
	o := Objective{Budget: 0.1, MinCount: 1}
	t0 := time.Unix(1000, 0)

	// A reading every second for 14 s: 2 events a second, one of them
	// bad from second 9 on. The readings keep seconds 4..13.
	var bad float64
	var total uint64
	rs := make(readings, 0, 10)
	for i := 0; i < 14; i++ {
		total += 2
		if i >= 9 {
			bad++
		}
		rs.add(reading{t: t0.Add(time.Duration(i) * time.Second), bad: bad, total: total})
	}
	if len(rs) != 10 || cap(rs) != 10 || rs[0].t != t0.Add(4*time.Second) {
		t.Fatalf("kept %d readings (cap %d) from %v, want 10 from second 4", len(rs), cap(rs), rs[0].t.Sub(t0))
	}
	// The trailing 3 s are seconds 11..13: 6 events, 3 bad.
	if b, n := rs.over(3 * time.Second); b != 3 || n != 6 {
		t.Fatalf("over(3s) = %v/%d, want 3/6", b, n)
	}
	// 100 s exceeds what is kept: second 4 is the base, so seconds 5..13
	// count: 18 events, 5 bad.
	if b, n := rs.over(100 * time.Second); b != 5 || n != 18 {
		t.Fatalf("over(100s) = %v/%d, want 5/18", b, n)
	}
	if got := burn(o, 5, 18); math.Abs(got-5.0/18/0.1) > 1e-12 {
		t.Fatalf("burn = %v", got)
	}
}

// TestBreachEventSeesStoredStatus: a subscriber to the slo-breach event
// — the watchdog, which embeds Status in the bundle manifest — reads
// the evaluation that fired it.
func TestBreachEventSeesStoredStatus(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Duration("t_sub_seconds", "sub latency")
	e := NewEngine(EngineConfig{
		Registry: reg,
		Objectives: []Objective{{
			Name: "read-p99", Budget: 0.01, MinCount: 10,
			counts: latencyCounts(10*time.Millisecond, h),
		}},
		FastWindow: 2 * time.Second,
		SlowWindow: 4 * time.Second,
		Tick:       time.Second,
		Cooldown:   time.Hour,
	})

	obs.ResetEvents()
	obs.EnableEvents(true)
	defer obs.EnableEvents(false)
	defer obs.ResetEvents()
	var seen []ObjectiveStatus
	obs.OnEvent(func(ev obs.Event) {
		if ev.Kind == "slo-breach" {
			seen = append(seen, e.Status()...)
		}
	})
	defer obs.OnEvent(nil)

	drive(e, time.Unix(50_000, 0), 4, func(int) {
		for j := 0; j < 20; j++ {
			h.Observe(uint64(50 * time.Millisecond))
		}
	})
	if len(seen) != 1 {
		t.Fatalf("subscriber saw %d statuses, want 1 (one breach event)", len(seen))
	}
	if s := seen[0]; !s.Breached || s.FastBurn < fastBurn {
		t.Fatalf("subscriber read %+v, want the firing objective breached", s)
	}
}
