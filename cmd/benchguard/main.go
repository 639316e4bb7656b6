// Command benchguard compares `go test -benchmem` output against a
// checked-in allocation baseline and fails on regressions. It exists to
// keep the zero-copy read path honest: an accidental extra allocation on
// the frame, cache-hit or epoch path is caught by CI, not by a profiler
// six months later.
//
// Usage:
//
//	go test -run '^$' -bench 'WireFrame|DcacheHit|EpochRead' -benchmem -count 3 ./... |
//	    go run ./cmd/benchguard -baseline BENCH_baseline.json
//
// The guard reads benchmark lines from stdin and fails (exit 1) when a
// benchmark's allocs/op or B/op exceeds its baseline by more than the
// threshold (default 10%) — bytes too, because a staging copy adds a
// buffer's worth of bytes and often not one allocation more. A benchmark
// whose baseline is 0 must stay at 0 — the zero-allocation guarantee is
// exact, not proportional. When a benchmark appears several times
// (-count N) the smallest value of each figure counts: a sync.Pool emptied
// by a GC cycle adds allocations and bytes to a short run, never removes
// them, so the minimum is the code's own cost. Where the baseline is 0
// allocs/op the bytes are not compared: with no allocation per operation,
// B/op is only a pooled buffer's one-time fill averaged over a short run.
// A benchmark in the baseline that was not measured also fails — a renamed
// or deleted benchmark must not silently leave the gate.
//
// Refresh the baseline after an intentional change with -update, which
// rewrites the JSON from the measured input instead of comparing.
//
// A second mode gates capacity instead of allocations: -capacity reads a
// cmd/diesel-load open-loop JSON report and fails when the achieved rate
// falls more than rate_tolerance below the committed BENCH_capacity.json
// baseline or the open-loop p99 grows more than p99_tolerance above it:
//
//	go run ./cmd/diesel-load -rate 1200 -duration 15s -disk-latency 1ms -json report.json
//	go run ./cmd/benchguard -capacity report.json -capacity-baseline BENCH_capacity.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

type entry struct {
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	NsPerOp     float64 `json:"ns_per_op"`
}

type baseline struct {
	// Threshold is the tolerated fractional allocs/op and B/op growth
	// (0.10 = 10%).
	Threshold  float64          `json:"threshold"`
	Benchmarks map[string]entry `json:"benchmarks"`
}

func main() {
	basePath := flag.String("baseline", "BENCH_baseline.json", "baseline JSON file")
	update := flag.Bool("update", false, "rewrite the baseline from stdin instead of comparing")
	threshold := flag.Float64("threshold", 0, "override the baseline's regression threshold (fraction)")
	capacity := flag.String("capacity", "", "gate a diesel-load JSON report against -capacity-baseline instead of reading bench lines")
	capacityBase := flag.String("capacity-baseline", "BENCH_capacity.json", "capacity baseline JSON file")
	flag.Parse()

	if *capacity != "" {
		runCapacity(*capacity, *capacityBase, *update)
		return
	}

	got, err := parseBench(os.Stdin)
	if err != nil {
		fatal(err)
	}
	if len(got) == 0 {
		fatal(fmt.Errorf("no benchmark lines on stdin (did the bench run fail?)"))
	}

	if *update {
		th := *threshold
		if th == 0 {
			th = 0.10
		}
		if err := writeBaseline(*basePath, baseline{Threshold: th, Benchmarks: got}); err != nil {
			fatal(err)
		}
		fmt.Printf("benchguard: wrote %d benchmarks to %s\n", len(got), *basePath)
		return
	}

	raw, err := os.ReadFile(*basePath)
	if err != nil {
		fatal(err)
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal(fmt.Errorf("parse %s: %w", *basePath, err))
	}
	th := base.Threshold
	if *threshold != 0 {
		th = *threshold
	}
	if th == 0 {
		th = 0.10
	}

	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := false
	over := func(cur, ref float64) bool { return cur > ref*(1+th) && cur > ref }
	for _, name := range names {
		cur := got[name]
		ref, ok := base.Benchmarks[name]
		if !ok {
			fmt.Printf("benchguard: NEW   %-48s %8.0f allocs/op %9.0f B/op (no baseline, not compared)\n",
				name, cur.AllocsPerOp, cur.BytesPerOp)
			continue
		}
		verdict := "ok  "
		if over(cur.AllocsPerOp, ref.AllocsPerOp) || ref.AllocsPerOp > 0 && over(cur.BytesPerOp, ref.BytesPerOp) {
			failed = true
			verdict = "FAIL"
		}
		fmt.Printf("benchguard: %s  %-48s %8.0f allocs/op, baseline %.0f (limit %.1f); %9.0f B/op, baseline %.0f (limit %.0f)\n",
			verdict, name, cur.AllocsPerOp, ref.AllocsPerOp, ref.AllocsPerOp*(1+th),
			cur.BytesPerOp, ref.BytesPerOp, ref.BytesPerOp*(1+th))
	}
	for name := range base.Benchmarks {
		if _, ok := got[name]; !ok {
			failed = true
			fmt.Printf("benchguard: MISS  %-48s in baseline but not measured\n", name)
		}
	}
	if failed {
		fmt.Println("benchguard: allocation or bytes regression, or unmeasured baseline entry")
		os.Exit(1)
	}
}

// parseBench extracts per-benchmark metrics from `go test -benchmem`
// output. Lines look like:
//
//	BenchmarkWireFrameRead/64KB-8  1000  1234 ns/op  53.1 MB/s  0 B/op  0 allocs/op
//
// The trailing "-8" GOMAXPROCS suffix is stripped so baselines compare
// across machines. Of several lines for one benchmark (-count N) each
// figure's minimum is kept.
func parseBench(f *os.File) (map[string]entry, error) {
	out := make(map[string]entry)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // echo so the CI log keeps the raw numbers
		fields := strings.Fields(line)
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var e entry
		seen := false
		for i := 2; i < len(fields)-1; i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				e.NsPerOp = v
			case "B/op":
				e.BytesPerOp = v
			case "allocs/op":
				e.AllocsPerOp = v
				seen = true
			}
		}
		if !seen {
			continue
		}
		if old, dup := out[name]; dup {
			e.AllocsPerOp = min(e.AllocsPerOp, old.AllocsPerOp)
			e.BytesPerOp = min(e.BytesPerOp, old.BytesPerOp)
			e.NsPerOp = min(e.NsPerOp, old.NsPerOp)
		}
		out[name] = e
	}
	return out, sc.Err()
}

func writeBaseline(path string, b baseline) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchguard:", err)
	os.Exit(1)
}
