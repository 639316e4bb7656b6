package loadgen

import (
	"strings"
	"time"

	"diesel/internal/obs"
	"diesel/internal/slo"
	"diesel/internal/tracing"
)

// DiagReport summarizes watchdog activity over a run: every diagnostic
// bundle the anomaly watchdog captured and why. The CI disk-tail smoke
// gates on Bundles being non-empty during the injected fault window and
// then feeds SpoolDir to `dlcmd diag -spool ... -verify`.
type DiagReport struct {
	SpoolDir string   `json:"spool_dir"`
	Bundles  []string `json:"bundles"`
	// Reasons are the trigger reasons, one per bundle (decoded from the
	// bundle ID's slug): slo-breach or breaker-trip.
	Reasons []string `json:"reasons,omitempty"`
}

// stackWatchdog is the per-run SLO engine + watchdog pair a stack with a
// DiagSpoolDir runs alongside the load.
type stackWatchdog struct {
	eng *slo.Engine
	wd  *slo.Watchdog
	dir string
}

// startWatchdog wires the SLO engine and anomaly watchdog over the
// embedded stack, with windows shrunk to CI scale: a 15-second run needs
// breach detection within a couple of seconds of the fault window
// opening, not the production 1m/30m pace. Tracing is switched on (low
// sample rate, 20ms slow threshold) so captured bundles hold the slow
// traces the fault produced.
func (s *Stack) startWatchdog() (*stackWatchdog, error) {
	dir := s.cfg.DiagSpoolDir
	tracing.EnableTracing(true)
	tracing.SetSampleRate(0.25)
	tracing.SetSlowThreshold(20 * time.Millisecond)

	reg := obs.Default()
	eng := slo.NewEngine(slo.EngineConfig{
		Registry: reg,
		Objectives: []slo.Objective{
			slo.EpochStallObjective(reg, s.cfg.stallSLO, 0.001),
			// The disk-tail smoke's tripwire: hedging keeps the readers'
			// stall p99 under its threshold even mid-fault, but the served
			// read latency can't hide — a 40x30ms straggler window pushes
			// frac(read > readObjective) more than an order of magnitude over
			// the 0.1% budget while the healthy phases sit around the budget.
			slo.ReadLatencyObjective(reg, readObjective, 0.001),
		},
		FastWindow: 2 * time.Second,
		SlowWindow: 8 * time.Second,
		Tick:       250 * time.Millisecond,
		Cooldown:   2 * time.Second,
	})
	wd, err := slo.NewWatchdog(slo.WatchdogConfig{
		Dir:        dir,
		MaxBundles: 8,
		CPUProfile: 500 * time.Millisecond,
		Cooldown:   3 * time.Second,
		Traces:     16,
		Registry:   reg,
		Status:     eng.Status,
		Roster: func() any {
			jobs, _ := s.Dep.JobRegistry().Jobs()
			return jobs
		},
	})
	if err != nil {
		eng.Stop()
		return nil, err
	}
	wd.Watch()
	eng.Start()
	return &stackWatchdog{eng: eng, wd: wd, dir: dir}, nil
}

// finish stops evaluation, waits for in-flight captures, and reports
// what the watchdog caught.
func (w *stackWatchdog) finish() *DiagReport {
	w.eng.Stop()
	w.wd.Close()
	rep := &DiagReport{SpoolDir: w.dir}
	for _, b := range w.wd.List() {
		rep.Bundles = append(rep.Bundles, b.ID)
		// bundle-<unixms>-<seq>-<reason-slug>
		if parts := strings.SplitN(b.ID, "-", 4); len(parts) == 4 {
			rep.Reasons = append(rep.Reasons, parts[3])
		}
	}
	return rep
}
