// Command benchguard gates capacity: it reads a cmd/diesel-load open-loop
// JSON report and fails when the achieved rate falls more than
// rate_tolerance below the committed baseline or the open-loop p99 grows
// more than p99_tolerance above it:
//
//	go run ./cmd/diesel-load -rate 1200 -duration 15s -disk-latency 1ms -json report.json
//	go run ./cmd/benchguard -baseline BENCH_capacity.json report.json
//
// Refresh the baseline after an intentional change with -update, which
// rewrites it from the report instead of comparing.
//
// Allocation budgets are not gated here: each read path's allocation
// table is a tier-1 test beside the path (internal/testkit).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
)

func main() {
	basePath := flag.String("baseline", "BENCH_capacity.json", "capacity baseline JSON file")
	update := flag.Bool("update", false, "rewrite the baseline from the report instead of comparing")
	flag.Parse()
	if flag.NArg() != 1 {
		fatal(errors.New("usage: benchguard [-baseline file] [-update] report.json"))
	}
	runCapacity(flag.Arg(0), *basePath, *update)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchguard:", err)
	os.Exit(1)
}
