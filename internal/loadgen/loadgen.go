package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Arrival selects the arrival process of the open-loop schedule.
type Arrival string

const (
	// Constant spaces arrivals exactly 1/rate apart.
	Constant Arrival = "constant"
	// Poisson draws exponential inter-arrival times (memoryless bursts —
	// the harsher, more production-like schedule).
	Poisson Arrival = "poisson"
)

// OpFunc is one operation issued by the harness. The rng is owned by the
// calling executor (no locking) and must be the only randomness source so
// runs replay under a fixed seed.
type OpFunc func(ctx context.Context, rng *rand.Rand) error

// WeightedOp is one entry of a workload mix.
type WeightedOp struct {
	Name   string
	Weight int
	Do     OpFunc
}

// Config drives run.
type Config struct {
	// Rate is the offered arrival rate in operations/second.
	Rate float64
	// Duration is how long arrivals are generated for. Completion may
	// take longer under backlog; run waits for every issued op.
	Duration time.Duration
	// Concurrency is the number of executor goroutines — the simulated
	// trainer processes (default 64). It caps in-flight operations; an
	// arrival that finds every executor busy queues, and its queue time
	// counts toward its open-loop latency.
	Concurrency int
	// Arrival is the arrival process (default Constant).
	Arrival Arrival
	// Seed makes generator decisions (arrival draws, op mix, op-internal
	// randomness) reproducible.
	Seed int64
	// Ops is the weighted workload mix (required).
	Ops []WeightedOp
	// Faults is the scripted fault schedule (may be empty).
	Faults Schedule
	// ClosedLoop switches to the classic closed-loop harness for
	// comparison runs: Concurrency workers issue ops back-to-back with
	// no arrival schedule, and the recorded "open-loop" latency equals
	// the service time — exactly the measurement that under-reports
	// stalls. Rate is ignored.
	ClosedLoop bool
}

// The open-loop engine's fixed settings.
const (
	// generators is the number of arrival-generator goroutines; each
	// handles every generators-th arrival with its phase offset on the
	// shared timeline.
	generators = 4
	// queueDepth bounds the arrival queue. Arrivals beyond it are shed and
	// counted — a shed arrival means the run was overloaded beyond what
	// queueing can express.
	queueDepth = 1 << 17
)

func (c *Config) setDefaults() error {
	if !c.ClosedLoop && c.Rate <= 0 {
		return errors.New("loadgen: Rate must be positive")
	}
	if c.Duration <= 0 {
		return errors.New("loadgen: Duration must be positive")
	}
	if len(c.Ops) == 0 {
		return errors.New("loadgen: empty op mix")
	}
	for _, op := range c.Ops {
		if op.Weight <= 0 || op.Do == nil {
			return fmt.Errorf("loadgen: op %q needs positive weight and a function", op.Name)
		}
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 64
	}
	if c.Arrival == "" {
		c.Arrival = Constant
	}
	if c.Arrival != Constant && c.Arrival != Poisson {
		return fmt.Errorf("loadgen: unknown arrival process %q", c.Arrival)
	}
	return c.Faults.validate()
}

// arrival is one scheduled operation: its offset on the run timeline and
// the mix entry it resolves to.
type arrival struct {
	intended time.Duration
	kind     uint8
}

// kindCount tracks per-mix-entry outcomes.
type kindCount struct {
	ops  atomic.Uint64
	errs atomic.Uint64
}

// run executes the configured load and returns its capacity report. It
// blocks until every issued operation has completed (or ctx is
// cancelled, which stops arrival generation and waits for in-flight ops).
func run(ctx context.Context, cfg Config) (*Report, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	rec := newRecorder(cfg.Concurrency, cfg.Faults)
	kinds := make([]kindCount, len(cfg.Ops))
	var shed atomic.Uint64
	var faultErrs faultErrors

	gorStart := runtime.NumGoroutine()
	heapStart := heapInuse()
	start := time.Now()

	// The fault scheduler runs under its own context so Revert still
	// executes when the run context is cancelled mid-window.
	var schedWG sync.WaitGroup
	if len(cfg.Faults) > 0 {
		schedWG.Add(1)
		go func() {
			defer schedWG.Done()
			cfg.Faults.run(ctx, start, faultErrs.add)
		}()
	}

	if cfg.ClosedLoop {
		runClosed(ctx, cfg, start, rec, kinds)
	} else {
		runOpen(ctx, cfg, start, rec, kinds, &shed)
	}
	elapsed := time.Since(start)
	schedWG.Wait()

	rep := buildReport(cfg, rec, kinds, elapsed)
	rep.Shed = shed.Load()
	rep.FaultErrors = faultErrs.take()
	rep.Runtime = &RuntimeReport{
		GoroutinesStart: gorStart,
		GoroutinesEnd:   runtime.NumGoroutine(),
		HeapInuseStartB: heapStart,
		HeapInuseEndB:   heapInuse(),
	}
	return rep, nil
}

func heapInuse() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

type faultErrors struct {
	mu   sync.Mutex
	list []string
}

func (f *faultErrors) add(name string, err error) {
	f.mu.Lock()
	f.list = append(f.list, fmt.Sprintf("%s: %v", name, err))
	f.mu.Unlock()
}

func (f *faultErrors) take() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.list
}

// pickKind resolves a weighted mix draw.
func pickKind(ops []WeightedOp, rng *rand.Rand, total int) uint8 {
	n := rng.Intn(total)
	for i, op := range ops {
		n -= op.Weight
		if n < 0 {
			return uint8(i)
		}
	}
	return uint8(len(ops) - 1)
}

func weightTotal(ops []WeightedOp) int {
	t := 0
	for _, op := range ops {
		t += op.Weight
	}
	return t
}

// runOpen is the open-loop engine: generators emit arrivals on the fixed
// timeline into a queue; executors drain it. A slow or stalled system
// backs the queue up, and every queued arrival keeps accumulating
// open-loop latency against its intended start — the generator never
// slows down (up to queueDepth, beyond which arrivals are shed and
// counted rather than silently delayed).
func runOpen(ctx context.Context, cfg Config, start time.Time, rec *Recorder, kinds []kindCount, shed *atomic.Uint64) {
	queue := make(chan arrival, queueDepth)
	wTotal := weightTotal(cfg.Ops)

	var genWG sync.WaitGroup
	for g := 0; g < generators; g++ {
		genWG.Add(1)
		go func(g int) {
			defer genWG.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(g)))
			// Generator g owns arrivals g, g+G, g+2G, … — its phase
			// offset on the shared timeline.
			var intended time.Duration
			step := func(k int64) time.Duration {
				if cfg.Arrival == Poisson {
					// Sum of G-spaced exponential draws ≡ one draw at
					// rate Rate/G per generator; superposing the G
					// generators restores a Poisson process at Rate.
					return time.Duration(rng.ExpFloat64() * generators / cfg.Rate * float64(time.Second))
				}
				_ = k
				return time.Duration(generators / cfg.Rate * float64(time.Second))
			}
			// Phase offset: generator g starts g/Rate into the timeline.
			intended = time.Duration(float64(g) / cfg.Rate * float64(time.Second))
			for k := int64(0); intended < cfg.Duration; k++ {
				if !sleepUntil(ctx, start.Add(intended)) {
					return
				}
				a := arrival{intended: intended, kind: pickKind(cfg.Ops, rng, wTotal)}
				select {
				case queue <- a:
				default:
					shed.Add(1) // overloaded beyond the queue: count, never block
				}
				intended += step(k)
			}
		}(g)
	}

	var execWG sync.WaitGroup
	for e := 0; e < cfg.Concurrency; e++ {
		execWG.Add(1)
		go func(e int) {
			defer execWG.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + 1_000_003*int64(e+1)))
			for a := range queue {
				svcStart := time.Now()
				err := cfg.Ops[a.kind].Do(ctx, rng)
				now := time.Now()
				openLat := now.Sub(start) - a.intended
				if openLat < 0 {
					openLat = 0
				}
				rec.record(e, a.intended, openLat, now.Sub(svcStart), err)
				kinds[a.kind].ops.Add(1)
				if err != nil {
					kinds[a.kind].errs.Add(1)
				}
			}
		}(e)
	}

	genWG.Wait()
	close(queue)
	execWG.Wait()
}

// runClosed is the comparison engine: workers loop back-to-back, so a
// stall pauses arrival generation itself — the measured latency is
// service time only, and the throughput silently adapts to the system's
// misbehaviour. Kept so the two measurement disciplines can be compared
// on identical fault schedules; never use its tail numbers in a writeup.
func runClosed(ctx context.Context, cfg Config, start time.Time, rec *Recorder, kinds []kindCount) {
	wTotal := weightTotal(cfg.Ops)
	var wg sync.WaitGroup
	for e := 0; e < cfg.Concurrency; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + 1_000_003*int64(e+1)))
			for ctx.Err() == nil {
				off := time.Since(start)
				if off >= cfg.Duration {
					return
				}
				kind := pickKind(cfg.Ops, rng, wTotal)
				svcStart := time.Now()
				err := cfg.Ops[kind].Do(ctx, rng)
				svcLat := time.Since(svcStart)
				// A closed loop has no intended start separate from the
				// actual one: openLat == svcLat by construction.
				rec.record(e, off, svcLat, svcLat, err)
				kinds[kind].ops.Add(1)
				if err != nil {
					kinds[kind].errs.Add(1)
				}
			}
		}(e)
	}
	wg.Wait()
}
