// Command bench is the repository's benchmark: four workloads on a real
// loopback DIESEL stack, measured end to end (tracing off) and layer by
// layer (a traced window plus a single-goroutine probe pass), from
// outside the layers through their public constructors and interfaces.
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bench -seed 1 -runs 5 -out results.json     every workload, both modes
//	bench -compare a.json b.json
//
// See README.md in this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workloads lists each workload with the one-line reason it exists
// (BENCHMARK.json carries the same lines; README.md has the long form).
var workloads = []struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}{
	{"epoch_server", "shuffled epochs straight from the servers, no cache, no modeled latency: the uncached path and the software's ceiling; wire 256 KiB frames, chunk.Parse, client, server work; dcache/spill/kvstore idle"},
	{"epoch_dcache", "2-node task over a warm unlimited dcache: half the reads are local views, half one peer RPC per file, so dcache and small-frame wire dominate while server, objstore and kvstore idle"},
	{"epoch_shared_spill", "two jobs on one SharedCache with RAM for 25% of the dataset plus a spill log: working set 4x the cache, reads land in RAM, spill pread or promote; wire and server idle after warm-up"},
	{"mixed_rw", "Zipf get/batch/chunk/stat reads, open loop at 2000 op/s then closed loop, beside a writer that ingests and deletes, over a Tiered cache on a modeled 1 ms disk: kvstore, executor, Tiered, ingest"},
}

// params is one run's configuration; the flags set it and the tests
// scale it down.
type params struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	files    int
	setups   int           // set-ups timed per run; the last one is measured on
	warm     time.Duration // unmeasured warm-up before the window
	probe    time.Duration // per round of a probe
	rate     int           // mixed_rw: open-loop read ops/s in the steady phase
	readers  int           // mixed_rw: closed-loop readers in the last phase, enough to keep every processor busy
	dir      string        // scratch space (spill logs); removed afterwards
	traceOut string
}

func defaultParams() params {
	return params{seed: 1, seconds: runSeconds, files: 16384, setups: 5, warm: 2 * time.Second, probe: 50 * time.Millisecond,
		rate: 2000, readers: 16 * runtime.GOMAXPROCS(0), dir: ".bench_build"}
}

// window is what one timed window produced.
type window struct {
	ops       int // samples delivered, or read ops completed
	attempted int
	failed    int // mismatched, undelivered, errored or shed
	opsPerS   float64
	waits     []float64 // ms, ascending: stalls, or open-loop read latencies

	ingestFilesPerS float64
	putUSPerFile    float64
	flushMS         []float64
	written         int // files the concurrent writer ingested

	steadyOps, closedOps int
	satOpsPerS           float64 // mixed_rw: closed-loop throughput with every processor busy
	overLimit            int
	genLagMS             []float64

	nextSelfNS, nextSelfN int64
	consumerWall          time.Duration

	allocsPerOp, cpuUSPerOp, heapPeakMB float64
}

func (e *env) window(dur time.Duration) (window, error) {
	if e.mixed != nil {
		return e.mixedWindow(dur)
	}
	return e.epochWindow(dur, false)
}

// costPerOp sets the window's cost figures from two usage readings and
// the ops between them. Each workload says where the readings go: around
// the whole window on epoch_*, around one phase on mixed_rw.
func (w *window) costPerOp(u0, u1 usage, ops int) {
	if ops > 0 {
		w.allocsPerOp = float64(u1.mallocs-u0.mallocs) / float64(ops)
		w.cpuUSPerOp = float64(u1.cpu-u0.cpu) / 1e3 / float64(ops)
	}
}

// measure runs one window from a collected heap, watching its peak.
func (e *env) measure(dur time.Duration) (window, error) {
	runtime.GC()
	hs := startHeapSampler()
	w, err := e.window(dur)
	w.heapPeakMB = hs.Stop()
	return w, err
}

// verify is the set-up content pass: one whole epoch (or the whole read
// set) with every byte hashed.
func (e *env) verify() error {
	if e.mixed != nil {
		return e.mixed.verify()
	}
	w, err := e.epochWindow(0, true)
	if err != nil {
		return err
	}
	if want := e.d.files() * len(e.consumers); w.failed != 0 || w.ops != want {
		return fmt.Errorf("content pass: %d of %d samples delivered, %d wrong", w.ops, want, w.failed)
	}
	return nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run sets the workload up p.setups times, verifies content, warms up,
// measures, and returns the metrics of the requested mode. Human-readable
// detail goes to log.
func run(p *params, log func(format string, a ...any)) (result, error) {
	var res result
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return res, err
	}
	dir, err := os.MkdirTemp(p.dir, "run-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)

	d := genDataset("bench", p.seed, p.files)
	rec := newRecorder()
	var e *env
	var setupS, ingestRate []float64
	for i := range p.setups {
		sub := filepath.Join(dir, fmt.Sprint(i))
		if e != nil {
			// Close the last set-up and delete its spill log before the
			// next starts, so its writeback does not land in this one.
			e.close()
			if err := os.RemoveAll(filepath.Join(dir, fmt.Sprint(i-1))); err != nil {
				return res, err
			}
		}
		runtime.GC()
		if e, err = setup(p, d, rec, sub); err != nil {
			return res, fmt.Errorf("set-up %d: %w", i, err)
		}
		setupS = append(setupS, e.set.total.Seconds())
		ingestRate = append(ingestRate, e.set.ingest.filesPerS())
	}
	defer e.close()
	if err := e.verify(); err != nil {
		return res, err
	}
	warm, err := e.window(p.warm)
	if err != nil {
		return res, fmt.Errorf("warm-up: %w", err)
	}
	res.Attempted, res.Failed = warm.attempted, warm.failed

	add := func(w window) {
		res.Attempted += w.attempted
		res.Failed += w.failed
	}
	dur := time.Duration(p.seconds * float64(time.Second))
	if !p.trace {
		w, err := e.measure(dur)
		if err != nil {
			return res, err
		}
		add(w)
		res.Metrics = endToEnd(e, w, median(setupS), median(ingestRate))
		logWindow(log, w)
	} else {
		// Half the window untraced, half traced: the two throughputs give
		// the tracing overhead, the traced half the per-layer numbers.
		w0, err := e.measure(dur / 2)
		if err != nil {
			return res, err
		}
		add(w0)
		rec.reset()
		c0 := e.counters()
		rec.on.Store(true)
		w1, err := e.measure(dur / 2)
		rec.on.Store(false)
		if err != nil {
			return res, err
		}
		add(w1)
		c1 := e.counters()
		spans, dropped := rec.snapshot()
		if dropped > 0 {
			log("trace: %d spans kept, %d more dropped\n", len(spans), dropped)
		}
		if p.traceOut != "" {
			if err := writeTrace(p.traceOut, spans); err != nil {
				return res, err
			}
		}
		ps, err := e.probe(dir)
		if err != nil {
			return res, err
		}
		res.Metrics = perLayer(e, w0, w1, spans, c0, c1, ps, log)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func logWindow(log func(string, ...any), w window) {
	label, tail := highestSupported(w.waits)
	log("window: %d ops (%d attempted, %d failed); waits n=%d p10=%.4f p50=%.4f p90=%.4f p95=%.4f p99=%.4f %s=%.4f ms\n",
		w.ops, w.attempted, w.failed, len(w.waits), percentile(w.waits, 0.1), percentile(w.waits, 0.5),
		percentile(w.waits, 0.9), percentile(w.waits, 0.95), percentile(w.waits, 0.99), label, tail)
	if w.steadyOps > 0 {
		log("mixed_rw: open loop %d ops, closed loop %d ops (%.0f/s with every processor busy), %d over %.0f ms or failed, writer %d files\n",
			w.steadyOps, w.closedOps, w.satOpsPerS, w.overLimit, overLimitMS, w.written)
	}
}

func main() {
	p := defaultParams()
	var trace, runs int
	var out string
	var compare, manifestOnly bool
	flag.StringVar(&p.workload, "workload", "", "workload to run (default: all, both modes)")
	flag.Int64Var(&p.seed, "seed", p.seed, "input seed")
	flag.Float64Var(&p.seconds, "seconds", p.seconds, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced window and the probe pass")
	flag.StringVar(&p.traceOut, "trace-out", "", "with -trace 1, write the recorded spans here (JSON lines)")
	flag.StringVar(&p.dir, "dir", p.dir, "scratch directory")
	flag.IntVar(&p.readers, "readers", p.readers, "mixed_rw: closed-loop readers in the last phase")
	flag.IntVar(&runs, "runs", 1, "without -workload: repetitions, seeds seed..seed+runs-1")
	flag.StringVar(&out, "out", "", "without -workload: write every run to this JSON file")
	flag.BoolVar(&compare, "compare", false, "compare two -out files: bench -compare a.json b.json")
	flag.BoolVar(&manifestOnly, "manifest", false, "print BENCHMARK.json as this program defines it, and exit")
	flag.Parse()
	p.trace = trace != 0

	switch {
	case manifestOnly:
		os.Stdout.Write(manifest())
	case compare:
		if flag.NArg() != 2 {
			fatal(errors.New("usage: bench -compare a.json b.json"))
		}
		ok, err := compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case p.workload == "":
		if err := runAll(&p, runs, out); err != nil {
			fatal(err)
		}
	default:
		if !knownWorkload(p.workload) {
			fatal(fmt.Errorf("unknown workload %q", p.workload))
		}
		res, err := run(&p, func(f string, a ...any) { fmt.Printf(f, a...) })
		if err != nil {
			fatal(err)
		}
		printMetrics(res)
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// finite guards the output: a NaN or Inf would not be JSON.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
