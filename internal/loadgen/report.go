package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// LatencySummary is the quantile view of one merged histogram, in
// seconds. Quantiles come from the power-of-two buckets of obs.Histogram,
// so they are exact to within one bucket — plenty for a ±25% CI gate.
type LatencySummary struct {
	Count uint64  `json:"count"`
	MeanS float64 `json:"mean_s"`
	P50S  float64 `json:"p50_s"`
	P90S  float64 `json:"p90_s"`
	P99S  float64 `json:"p99_s"`
	P999S float64 `json:"p999_s"`
	MaxS  float64 `json:"max_s"`
}

func summarize(s PhaseStats, open bool) LatencySummary {
	h := s.Svc
	max := s.MaxSvc
	if open {
		h = s.Open
		max = s.MaxOpen
	}
	const ns = 1e-9
	return LatencySummary{
		Count: h.Count,
		MeanS: h.Mean() * ns,
		P50S:  h.Quantile(0.50) * ns,
		P90S:  h.Quantile(0.90) * ns,
		P99S:  h.Quantile(0.99) * ns,
		P999S: h.Quantile(0.999) * ns,
		MaxS:  max.Seconds(),
	}
}

// KindReport is the per-mix-entry outcome count.
type KindReport struct {
	Name   string `json:"name"`
	Ops    uint64 `json:"ops"`
	Errors uint64 `json:"errors"`
}

// PhaseReport is one phase's latency/outcome summary. Operations are
// attributed by intended start, so a fault window owns every request that
// was *due* while it was open — including the ones that limped home after
// it closed.
type PhaseReport struct {
	Name    string         `json:"name"`
	StartS  float64        `json:"start_s"`
	EndS    float64        `json:"end_s"`
	Errors  uint64         `json:"errors"`
	Open    LatencySummary `json:"open_loop"`
	Service LatencySummary `json:"service_time"`
}

// RuntimeReport captures process self-telemetry around the run, to catch
// goroutine or heap leaks in soak mode.
type RuntimeReport struct {
	GoroutinesStart int    `json:"goroutines_start"`
	GoroutinesEnd   int    `json:"goroutines_end"`
	HeapInuseStartB uint64 `json:"heap_inuse_start_b"`
	HeapInuseEndB   uint64 `json:"heap_inuse_end_b"`
}

// Report is the machine-readable capacity report: what cmd/diesel-load
// emits, EXPERIMENTS.md records, and cmd/benchguard -capacity gates.
type Report struct {
	Harness string  `json:"harness"` // "open-loop" or "closed-loop"
	Arrival Arrival `json:"arrival,omitempty"`
	Seed    int64   `json:"seed"`

	OfferedRateQPS  float64 `json:"offered_rate_qps,omitempty"`
	DurationS       float64 `json:"duration_s"`
	ElapsedS        float64 `json:"elapsed_s"`
	AchievedRateQPS float64 `json:"achieved_rate_qps"`
	Concurrency     int     `json:"concurrency"`
	Generators      int     `json:"generators,omitempty"`

	Ops    uint64 `json:"ops"`
	Errors uint64 `json:"errors"`
	// Shed counts arrivals dropped because the queue was full — nonzero
	// means the offered rate exceeded capacity by more than the queue
	// could absorb, and the latency figures understate the overload.
	Shed uint64 `json:"shed,omitempty"`

	Open    LatencySummary `json:"open_loop"`
	Service LatencySummary `json:"service_time"`

	// EpochStall summarizes how long the background epoch readers'
	// Next calls blocked on the pipeline (diesel_epoch_stall_seconds);
	// present only when RunEmbedded ran with EpochReaders > 0. The
	// disk-tail CI smoke gates its p99: hedging regressions surface
	// here as stalls eating the full straggler latency.
	EpochStall *LatencySummary `json:"epoch_stall,omitempty"`

	Kinds  []KindReport  `json:"kinds,omitempty"`
	Phases []PhaseReport `json:"phases,omitempty"`

	// Diag lists the diagnostic bundles the anomaly watchdog captured
	// during the run; present only when StackConfig.DiagSpoolDir was set.
	// The disk-tail CI smoke asserts it is non-empty under the injected
	// fault window.
	Diag *DiagReport `json:"diag,omitempty"`

	// MultiJob summarizes shared-cache behaviour when the stack ran
	// several training jobs over one dataset (StackConfig.Jobs >= 2):
	// cache-hit amplification and per-job read fairness. The CI two-job
	// smoke gates Amplification.
	MultiJob *MultiJobReport `json:"multi_job,omitempty"`

	// FaultErrors lists Apply/Revert failures of the fault schedule.
	FaultErrors []string `json:"fault_errors,omitempty"`
	// Counters holds deltas of selected obs counters over the run
	// (client retries, cache master deaths/revivals, wire redials…) —
	// filled by RunEmbedded, absent for bare run.
	Counters map[string]float64 `json:"counters,omitempty"`
	Runtime  *RuntimeReport     `json:"runtime,omitempty"`
}

// MultiJobReport is the shared-cache view of a multi-job run. With J
// jobs over a dataset of U chunks, private caches would pull J×U chunks
// from the servers; ChunkLoads is what the shared cache actually pulled,
// so Amplification = J×U / ChunkLoads approaches J when sharing works
// and 1 when every job loads its own copies.
type MultiJobReport struct {
	Jobs         int    `json:"jobs"`
	UniqueChunks int    `json:"unique_chunks"`
	ChunkLoads   uint64 `json:"chunk_loads"` // server chunk fetches across all jobs
	CacheReads   uint64 `json:"cache_reads"` // file reads served by the shared cache
	// SharedHitRate is 1 - ChunkLoads/(Jobs×UniqueChunks): the fraction
	// of per-job chunk demand absorbed by sharing.
	SharedHitRate float64 `json:"shared_hit_rate"`
	Amplification float64 `json:"amplification"`
	// PerJobReads maps job ID to cache reads served for that job, and
	// FairnessRatio is min/max across jobs — 1.0 is perfectly fair.
	PerJobReads   map[string]uint64 `json:"per_job_reads,omitempty"`
	FairnessRatio float64           `json:"fairness_ratio,omitempty"`
}

func buildReport(cfg Config, rec *Recorder, kinds []kindCount, elapsed time.Duration) *Report {
	total := rec.Total()
	rep := &Report{
		Harness:     "open-loop",
		Arrival:     cfg.Arrival,
		Seed:        cfg.Seed,
		DurationS:   cfg.Duration.Seconds(),
		ElapsedS:    elapsed.Seconds(),
		Concurrency: cfg.Concurrency,
		Generators:  generators,
		Ops:         total.Open.Count,
		Errors:      total.Errors,
		Open:        summarize(total, true),
		Service:     summarize(total, false),
	}
	if cfg.ClosedLoop {
		rep.Harness = "closed-loop"
		rep.Arrival = ""
		rep.Generators = 0
	} else {
		rep.OfferedRateQPS = cfg.Rate
	}
	if elapsed > 0 {
		rep.AchievedRateQPS = float64(total.Open.Count) / elapsed.Seconds()
	}
	for i, op := range cfg.Ops {
		rep.Kinds = append(rep.Kinds, KindReport{
			Name:   op.Name,
			Ops:    kinds[i].ops.Load(),
			Errors: kinds[i].errs.Load(),
		})
	}
	for _, ph := range rec.phases() {
		if ph.Open.Count == 0 && ph.Name == "steady" && len(cfg.Faults) == 0 {
			// No faults and nothing recorded: skip the redundant phase.
			continue
		}
		rep.Phases = append(rep.Phases, PhaseReport{
			Name:    ph.Name,
			StartS:  ph.Start.Seconds(),
			EndS:    ph.End.Seconds(),
			Errors:  ph.Errors,
			Open:    summarize(ph, true),
			Service: summarize(ph, false),
		})
	}
	return rep
}

// ErrorRate returns Errors/Ops (0 for an empty run).
func (r *Report) ErrorRate() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.Errors) / float64(r.Ops)
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Summary renders the human-oriented one-screen summary printed after a
// run (the JSON report is the contract; this is for eyeballs).
func (r *Report) Summary(w io.Writer) {
	fmt.Fprintf(w, "%s harness", r.Harness)
	if r.OfferedRateQPS > 0 {
		fmt.Fprintf(w, ", offered %.0f op/s (%s)", r.OfferedRateQPS, r.Arrival)
	}
	fmt.Fprintf(w, ": %d ops in %.1fs -> achieved %.0f op/s, %d errors",
		r.Ops, r.ElapsedS, r.AchievedRateQPS, r.Errors)
	if r.Shed > 0 {
		fmt.Fprintf(w, ", %d SHED", r.Shed)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  open-loop    p50 %8.3fms  p90 %8.3fms  p99 %8.3fms  p99.9 %8.3fms  max %8.1fms\n",
		r.Open.P50S*1e3, r.Open.P90S*1e3, r.Open.P99S*1e3, r.Open.P999S*1e3, r.Open.MaxS*1e3)
	fmt.Fprintf(w, "  service-time p50 %8.3fms  p90 %8.3fms  p99 %8.3fms  p99.9 %8.3fms  max %8.1fms\n",
		r.Service.P50S*1e3, r.Service.P90S*1e3, r.Service.P99S*1e3, r.Service.P999S*1e3, r.Service.MaxS*1e3)
	if es := r.EpochStall; es != nil {
		fmt.Fprintf(w, "  epoch-stall  p50 %8.3fms  p90 %8.3fms  p99 %8.3fms  p99.9 %8.3fms  (%d pipeline waits)\n",
			es.P50S*1e3, es.P90S*1e3, es.P99S*1e3, es.P999S*1e3, es.Count)
	}
	if d := r.Diag; d != nil {
		fmt.Fprintf(w, "  watchdog     %d bundle(s) in %s", len(d.Bundles), d.SpoolDir)
		if len(d.Reasons) > 0 {
			fmt.Fprintf(w, "  reasons=[%s]", strings.Join(d.Reasons, " "))
		}
		fmt.Fprintln(w)
	}
	if mj := r.MultiJob; mj != nil {
		fmt.Fprintf(w, "  multi-job    %d jobs x %d chunks: %d server loads -> amplification %.2fx, shared hit rate %.1f%%, fairness %.2f\n",
			mj.Jobs, mj.UniqueChunks, mj.ChunkLoads, mj.Amplification, mj.SharedHitRate*100, mj.FairnessRatio)
	}
	for _, ph := range r.Phases {
		if ph.Name == "steady" && len(r.Phases) == 1 {
			break
		}
		fmt.Fprintf(w, "  phase %-12s [%6.1fs..%6.1fs] %8d ops  open p99 %8.3fms  svc p99 %8.3fms  errs %d\n",
			ph.Name, ph.StartS, ph.EndS, ph.Open.Count, ph.Open.P99S*1e3, ph.Service.P99S*1e3, ph.Errors)
	}
	for _, fe := range r.FaultErrors {
		fmt.Fprintf(w, "  fault-error: %s\n", fe)
	}
}
