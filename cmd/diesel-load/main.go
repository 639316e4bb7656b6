// Command diesel-load is DIESEL's open-loop load harness: it offers a
// fixed arrival schedule (constant or Poisson) to a real
// diesel-server+kvnode stack and measures every operation from its
// *intended* start, so a stalled or faulted system shows up as tail
// latency instead of silently slowing the generator down (coordinated
// omission — the flaw of closed-loop "N workers in a loop" drivers;
// -closed-loop runs that way for comparison).
//
// It deploys kvnodes + diesel-servers in-process on loopback TCP, ingests
// a synthetic dataset, and drives it, so every fault kind is available,
// node kill/restart included. With -diag-spool the SLO engine and anomaly
// watchdog run alongside the load (epoch-stall objective 10 ms,
// served-read objective 20 ms), as -diag-spool does on diesel-server and
// kvnode.
//
// Fault schedules are timed windows on the run timeline:
//
//	diesel-load -rate 2000 -duration 30s \
//	  -faults "5s+3s:server-kill:0; 12s+3s:disk-slow:10ms; 20s+3s:net-drop:0.3"
//
// The JSON report (-json) is the machine-readable contract:
// cmd/benchguard gates achieved rate and open-loop p99 against
// a committed baseline in CI, and EXPERIMENTS.md records soak runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"diesel/internal/loadgen"
	"diesel/internal/tracing"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("diesel-load: ")
	tracing.SetProcess("diesel-load")

	// Load shape.
	rate := flag.Float64("rate", 500, "offered arrival rate, operations/second")
	duration := flag.Duration("duration", 10*time.Second, "arrival-generation window (completion may run longer)")
	arrival := flag.String("arrival", "constant", "arrival process: constant or poisson")
	seed := flag.Int64("seed", 1, "seed for arrival draws and workload mix")
	mix := flag.String("mix", "get=6,batch=2,chunk=1", "weighted op mix: get,direct,batch,chunk,view,stat (kind=weight,...)")
	faults := flag.String("faults", "", `fault schedule: "start+dur:kind[:arg]; ..." — kinds kv-kill, server-kill, disk-slow, disk-tail, net-delay, net-drop, net-sever`)
	closedLoop := flag.Bool("closed-loop", false, "run the classic closed-loop harness instead (service-time-only numbers, for comparison)")

	// System under test.
	files := flag.Int("files", 512, "dataset size in files")
	diskLatency := flag.Duration("disk-latency", 0, "modeled per-op store latency (makes p99 portable in CI)")
	clients := flag.Int("clients", 8, "libDIESEL contexts to round-robin ops over")
	taskNodes := flag.Int("task-nodes", 0, "simulated nodes of a DLT task with the distributed cache (0 = no task)")
	clientsPerNode := flag.Int("clients-per-node", 0, "I/O processes per task node")
	jobs := flag.Int("jobs", 0, "run this many concurrent training jobs over the one dataset, sharing a chunk cache (needs -task-nodes/-clients-per-node; <2 = single task)")
	epochReaders := flag.Int("epoch-readers", 0, "background pipelined epoch readers looping during the run")
	epochHedge := flag.Bool("epoch-hedge", false, "hedge the epoch readers' straggling group fetches (first success wins)")
	epochReorder := flag.Int("epoch-reorder", 0, "epoch readers serve whichever of the next k prefetched groups lands first")
	epochDeadline := flag.Duration("epoch-deadline", 0, "per-attempt deadline on the epoch readers' group fetches")
	diagSpool := flag.String("diag-spool", "", "run the SLO engine + anomaly watchdog alongside the load (CI-scale burn windows), spooling diagnostic bundles here (empty = disabled)")

	// Output and gating.
	jsonPath := flag.String("json", "", "write the JSON capacity report here (- = stdout)")
	maxErrorRate := flag.Float64("max-error-rate", -1, "exit nonzero if errors/ops exceeds this (negative = no gate)")
	minAmplification := flag.Float64("min-amplification", -1, "exit nonzero if the -jobs shared-cache amplification falls below this (negative = no gate)")
	minDiagBundles := flag.Int("min-diag-bundles", -1, "exit nonzero if the watchdog captured fewer diagnostic bundles than this (negative = no gate)")
	flag.Parse()

	st, err := loadgen.StartStack(loadgen.StackConfig{
		Files:          *files,
		DiskLatency:    *diskLatency,
		Clients:        *clients,
		TaskNodes:      *taskNodes,
		ClientsPerNode: *clientsPerNode,
		Jobs:           *jobs,
		EpochReaders:   *epochReaders,
		EpochHedge:     *epochHedge,
		EpochReorder:   *epochReorder,
		EpochDeadline:  *epochDeadline,
		DiagSpoolDir:   *diagSpool,
	})
	if err != nil {
		log.Fatalf("stack: %v", err)
	}
	defer st.Close()

	ops, err := st.Ops(*mix)
	if err != nil {
		log.Fatal(err)
	}
	sched, err := st.ParseSchedule(*faults)
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	mode := "open-loop"
	if *closedLoop {
		mode = "closed-loop"
	}
	log.Printf("%s run: %.0f op/s (%s) for %v, mix %q, %d faults",
		mode, *rate, *arrival, *duration, *mix, len(sched))

	rep, err := st.RunEmbedded(ctx, loadgen.Config{
		Rate:       *rate,
		Duration:   *duration,
		Arrival:    loadgen.Arrival(*arrival),
		Seed:       *seed,
		Ops:        ops,
		Faults:     sched,
		ClosedLoop: *closedLoop,
	})
	if err != nil {
		log.Fatalf("run: %v", err)
	}

	rep.Summary(os.Stderr)
	switch *jsonPath {
	case "":
	case "-":
		if err := rep.WriteJSON(os.Stdout); err != nil {
			log.Fatalf("write report: %v", err)
		}
	default:
		f, err := os.Create(*jsonPath)
		if err != nil {
			log.Fatalf("write report: %v", err)
		}
		if err := rep.WriteJSON(f); err != nil {
			log.Fatalf("write report: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("write report: %v", err)
		}
		log.Printf("report written to %s", *jsonPath)
	}

	if *maxErrorRate >= 0 && rep.ErrorRate() > *maxErrorRate {
		fmt.Fprintf(os.Stderr, "FAIL: error rate %.4f exceeds -max-error-rate %.4f\n",
			rep.ErrorRate(), *maxErrorRate)
		os.Exit(1)
	}
	if *minAmplification >= 0 {
		if rep.MultiJob == nil {
			fmt.Fprintln(os.Stderr, "FAIL: -min-amplification set but the run produced no multi-job report (need -jobs >= 2 with a task)")
			os.Exit(1)
		}
		if rep.MultiJob.Amplification < *minAmplification {
			fmt.Fprintf(os.Stderr, "FAIL: shared-cache amplification %.2f below -min-amplification %.2f\n",
				rep.MultiJob.Amplification, *minAmplification)
			os.Exit(1)
		}
	}
	if *minDiagBundles >= 0 {
		if rep.Diag == nil {
			fmt.Fprintln(os.Stderr, "FAIL: -min-diag-bundles set but the run had no watchdog (need -diag-spool)")
			os.Exit(1)
		}
		if len(rep.Diag.Bundles) < *minDiagBundles {
			fmt.Fprintf(os.Stderr, "FAIL: watchdog captured %d diagnostic bundle(s), below -min-diag-bundles %d\n",
				len(rep.Diag.Bundles), *minDiagBundles)
			os.Exit(1)
		}
	}
}
