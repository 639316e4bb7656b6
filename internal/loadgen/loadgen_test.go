package loadgen

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

var errBoom = errors.New("boom")

// TestOpenLoopSeesStallClosedLoopDoesNot is the coordinated-omission
// property test: replay one synthetic trace through both measurement
// disciplines and check that only the open-loop recorder's p99 reflects
// an injected 10× stall.
//
// The trace is a single-worker FIFO queue: arrivals every 1ms, service
// time 0.98ms, and every Nth operation a 10× slow read (10ms stall).
// Deterministic arithmetic — no sleeping, no goroutines — so the
// property holds on any machine:
//
//   - Closed-loop records service time only: its p99 can never exceed
//     the slowest single operation (the stall itself), and with stalls
//     rarer than 1-in-100 it does not even see that — coordinated
//     omission.
//   - Open-loop measures from intended start. Each 10ms stall builds a
//     backlog that drains at only 0.02ms per op, so the queue never
//     clears between stalls and intended-start latencies compound; p99
//     must rise at least a full stall duration above the closed-loop
//     p99 on the same trace.
func TestOpenLoopSeesStallClosedLoopDoesNot(t *testing.T) {
	const (
		n        = 10000
		interval = time.Millisecond
		svc      = 980 * time.Microsecond
		stall    = 10 * time.Millisecond
	)
	for _, tc := range []struct {
		name  string
		every int // one stall per this many ops
	}{
		{"one-in-50", 50},   // stalls above the 1% tail: closed p99 = stall, no more
		{"one-in-200", 200}, // stalls under the 1% tail: closed p99 fully blind
	} {
		t.Run(tc.name, func(t *testing.T) {
			openRec := newRecorder(1, nil)
			closedRec := newRecorder(1, nil)

			var done time.Duration // completion time of the previous op (FIFO)
			for k := 0; k < n; k++ {
				arrival := time.Duration(k) * interval
				s := svc
				if k%tc.every == tc.every-1 {
					s = stall
				}
				start := arrival
				if done > start {
					start = done // queued behind the backlog
				}
				done = start + s
				openRec.record(0, arrival, done-arrival, s, nil)
				// The closed loop issues the next op when the previous
				// returns: its "latency" is the service time, always.
				closedRec.record(0, start, s, s, nil)
			}

			openP99 := time.Duration(openRec.Total().Open.Quantile(0.99))
			closedP99 := time.Duration(closedRec.Total().Open.Quantile(0.99))
			t.Logf("open p99 = %v, closed p99 = %v", openP99, closedP99)

			// Closed-loop can never report more than the worst single
			// service time (one power-of-two bucket of slack for the
			// histogram's interpolation).
			if closedP99 > 2*stall {
				t.Errorf("closed-loop p99 = %v, expected <= stall %v: service time bounds it", closedP99, stall)
			}
			if tc.every > 100 && closedP99 >= stall {
				t.Errorf("closed-loop p99 = %v, expected < stall %v (stalls are under the 1%% tail)", closedP99, stall)
			}
			// Open-loop must surface the stall's queueing: a full stall
			// duration above whatever the closed loop reports.
			if openP99 < closedP99+stall {
				t.Errorf("open-loop p99 = %v, want >= closed-loop p99 %v + stall %v", openP99, closedP99, stall)
			}
			// The same trace, same service times: only the measurement
			// differs.
			if openRec.Total().Open.Count != closedRec.Total().Open.Count {
				t.Fatalf("trace length mismatch")
			}
		})
	}
}

func TestScheduleValidate(t *testing.T) {
	ok := Schedule{
		{Name: "a", Start: time.Second, Dur: time.Second},
		{Name: "b", Start: 3 * time.Second, Dur: time.Second},
	}
	if err := ok.validate(); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	overlap := Schedule{
		{Name: "a", Start: time.Second, Dur: 2 * time.Second},
		{Name: "b", Start: 2 * time.Second, Dur: time.Second},
	}
	if err := overlap.validate(); err == nil {
		t.Error("overlapping schedule accepted")
	}
	unsorted := Schedule{
		{Name: "b", Start: 3 * time.Second, Dur: time.Second},
		{Name: "a", Start: time.Second, Dur: time.Second},
	}
	if err := unsorted.validate(); err == nil {
		t.Error("unsorted schedule accepted")
	}
	zero := Schedule{{Name: "z", Start: time.Second, Dur: 0}}
	if err := zero.validate(); err == nil {
		t.Error("zero-duration window accepted")
	}
}

// TestRecorderPhaseAttribution checks that operations land in the fault
// window their *intended* start falls in, even when they complete later.
func TestRecorderPhaseAttribution(t *testing.T) {
	sched := Schedule{{Name: "kill", Start: 2 * time.Second, Dur: time.Second}}
	rec := newRecorder(2, sched)

	rec.record(0, 1*time.Second, time.Millisecond, time.Millisecond, nil) // steady
	// Intended mid-window, finishes long after it closed, and failed:
	// still belongs to the window.
	rec.record(1, 2500*time.Millisecond, 5*time.Second, 5*time.Second, errBoom)
	rec.record(0, 3500*time.Millisecond, time.Millisecond, time.Millisecond, nil) // steady again

	phases := rec.phases()
	if len(phases) != 2 {
		t.Fatalf("got %d phases, want 2", len(phases))
	}
	steady, kill := phases[0], phases[1]
	if steady.Name != "steady" || steady.Open.Count != 2 {
		t.Errorf("steady = %q count %d, want steady/2", steady.Name, steady.Open.Count)
	}
	if kill.Name != "kill" || kill.Open.Count != 1 {
		t.Errorf("window = %q count %d, want kill/1", kill.Name, kill.Open.Count)
	}
	if kill.MaxOpen < 5*time.Second {
		t.Errorf("window max open = %v, want >= 5s", kill.MaxOpen)
	}
	if got := rec.Total().Open.Count; got != 3 {
		t.Errorf("total count = %d, want 3", got)
	}
	if kill.Errors != 1 {
		t.Errorf("window errors = %d, want 1", kill.Errors)
	}
}

// TestRunOpenLoop drives the real runner with a fast no-op workload and
// checks the report's accounting.
func TestRunOpenLoop(t *testing.T) {
	rep, err := run(context.Background(), Config{
		Rate:        2000,
		Duration:    300 * time.Millisecond,
		Concurrency: 8,
		Seed:        42,
		Arrival:     Poisson,
		Ops: []WeightedOp{
			{Name: "noop", Weight: 1, Do: func(ctx context.Context, rng *rand.Rand) error {
				return nil
			}},
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Harness != "open-loop" || rep.Arrival != Poisson {
		t.Errorf("harness/arrival = %q/%q", rep.Harness, rep.Arrival)
	}
	if rep.Ops == 0 {
		t.Fatal("no operations recorded")
	}
	// Poisson at 2000/s over 0.3s ≈ 600 arrivals; allow wide slack.
	if rep.Ops < 200 || rep.Ops > 1800 {
		t.Errorf("ops = %d, want ~600", rep.Ops)
	}
	if rep.Errors != 0 || rep.Shed != 0 {
		t.Errorf("errors=%d shed=%d, want 0/0", rep.Errors, rep.Shed)
	}
	if rep.Open.P50S <= 0 || rep.Open.P99S < rep.Open.P50S {
		t.Errorf("quantiles not sane: p50=%v p99=%v", rep.Open.P50S, rep.Open.P99S)
	}
	if rep.AchievedRateQPS <= 0 {
		t.Error("achieved rate not computed")
	}
	if len(rep.Kinds) != 1 || rep.Kinds[0].Ops != rep.Ops {
		t.Errorf("kind accounting mismatch: %+v vs %d", rep.Kinds, rep.Ops)
	}
}

// TestRunClosedLoop checks the comparison harness labels itself and that
// open-loop latency degenerates to service time.
func TestRunClosedLoop(t *testing.T) {
	rep, err := run(context.Background(), Config{
		ClosedLoop:  true,
		Duration:    150 * time.Millisecond,
		Concurrency: 4,
		Seed:        1,
		Ops: []WeightedOp{
			{Name: "noop", Weight: 1, Do: func(ctx context.Context, rng *rand.Rand) error {
				time.Sleep(100 * time.Microsecond)
				return nil
			}},
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Harness != "closed-loop" {
		t.Errorf("harness = %q", rep.Harness)
	}
	if rep.Ops == 0 {
		t.Fatal("no operations recorded")
	}
	if rep.Open.Count != rep.Service.Count {
		t.Errorf("open/service counts differ: %d vs %d", rep.Open.Count, rep.Service.Count)
	}
}

// TestRunFaultSchedule runs a real-time schedule and checks the window's
// Apply/Revert fire and its operations are attributed to the phase.
func TestRunFaultSchedule(t *testing.T) {
	var applied, reverted, slow atomic.Int64
	sched := Schedule{{
		Name:  "slow",
		Start: 100 * time.Millisecond,
		Dur:   100 * time.Millisecond,
		Apply: func() error {
			applied.Add(1)
			slow.Store(1)
			return nil
		},
		Revert: func() error {
			reverted.Add(1)
			slow.Store(0)
			return nil
		},
	}}
	rep, err := run(context.Background(), Config{
		Rate:        500,
		Duration:    300 * time.Millisecond,
		Concurrency: 4,
		Seed:        7,
		Faults:      sched,
		Ops: []WeightedOp{
			{Name: "op", Weight: 1, Do: func(ctx context.Context, rng *rand.Rand) error {
				if slow.Load() == 1 {
					time.Sleep(2 * time.Millisecond)
				}
				return nil
			}},
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if applied.Load() != 1 || reverted.Load() != 1 {
		t.Errorf("apply/revert = %d/%d, want 1/1", applied.Load(), reverted.Load())
	}
	if len(rep.FaultErrors) != 0 {
		t.Errorf("fault errors: %v", rep.FaultErrors)
	}
	if len(rep.Phases) != 2 {
		t.Fatalf("got %d phases, want steady+slow", len(rep.Phases))
	}
	if rep.Phases[1].Name != "slow" || rep.Phases[1].Open.Count == 0 {
		t.Errorf("fault phase = %+v, want named slow with ops", rep.Phases[1])
	}
}
