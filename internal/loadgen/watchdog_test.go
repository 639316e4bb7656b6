package loadgen

import (
	"context"
	"os"
	"strings"
	"testing"
	"time"
)

// TestWatchdogFiresUnderFault is the in-package version of the CI
// disk-tail assertion: a run whose whole span sits under a disk-slow
// fault, with the epoch-stall SLO set so low every stall burns budget,
// must end with the anomaly watchdog having captured at least one
// diagnostic bundle into the spool.
func TestWatchdogFiresUnderFault(t *testing.T) {
	spool := t.TempDir()
	st, err := StartStack(StackConfig{
		Files:        96,
		FileSizeB:    1024,
		Clients:      2,
		EpochReaders: 2,
		DiagSpoolDir: spool,
		// Every 15ms-throttled stall is over a 1ms objective, so the
		// burn rate saturates as soon as the sample windows fill.
		stallSLO: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("StartStack: %v", err)
	}
	defer st.Close()

	ops, err := st.Ops("get=1")
	if err != nil {
		t.Fatalf("Ops: %v", err)
	}
	sched, err := st.ParseSchedule("0s+3s:disk-slow:15ms")
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	rep, err := st.RunEmbedded(context.Background(), Config{
		Rate:        100,
		Duration:    3 * time.Second,
		Concurrency: 8,
		Seed:        7,
		Ops:         ops,
		Faults:      sched,
	})
	if err != nil {
		t.Fatalf("RunEmbedded: %v", err)
	}

	if rep.Diag == nil {
		t.Fatal("watchdog run produced no Diag report")
	}
	if rep.Diag.SpoolDir != spool {
		t.Fatalf("Diag.SpoolDir = %q, want %q", rep.Diag.SpoolDir, spool)
	}
	if len(rep.Diag.Bundles) == 0 {
		t.Fatalf("watchdog captured no bundles under the fault window; report: %+v", rep)
	}
	breach := false
	for _, r := range rep.Diag.Reasons {
		if strings.Contains(r, "slo-breach") {
			breach = true
		}
	}
	if !breach {
		t.Fatalf("no slo-breach bundle among reasons %v", rep.Diag.Reasons)
	}
	// The bundles are really on disk, one tarball each.
	ents, err := os.ReadDir(spool)
	if err != nil {
		t.Fatal(err)
	}
	tarballs := 0
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "bundle-") && strings.HasSuffix(e.Name(), ".tar.gz") {
			tarballs++
		}
	}
	if tarballs != len(rep.Diag.Bundles) {
		t.Fatalf("spool holds %d tarballs, Diag lists %d", tarballs, len(rep.Diag.Bundles))
	}
}

// TestDiagFollowsSpoolDir pins what turns the watchdog on: a spool
// directory and nothing else, as on diesel-server and kvnode. A stack
// without one reports no Diag.
func TestDiagFollowsSpoolDir(t *testing.T) {
	spool := t.TempDir()
	for _, tc := range []struct {
		name  string
		spool string
	}{{"spool", spool}, {"no spool", ""}} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := StartStack(StackConfig{
				Files: 8, FileSizeB: 64, Clients: 1, KVNodes: 1, Servers: 1,
				DiagSpoolDir: tc.spool,
			})
			if err != nil {
				t.Fatalf("StartStack: %v", err)
			}
			defer st.Close()
			ops, err := st.Ops("get=1")
			if err != nil {
				t.Fatal(err)
			}
			rep, err := st.RunEmbedded(context.Background(), Config{
				Rate: 100, Duration: 100 * time.Millisecond, Concurrency: 2, Seed: 1, Ops: ops,
			})
			if err != nil {
				t.Fatalf("RunEmbedded: %v", err)
			}
			switch {
			case tc.spool == "" && rep.Diag != nil:
				t.Fatalf("stack without a spool ran the watchdog: %+v", rep.Diag)
			case tc.spool != "" && (rep.Diag == nil || rep.Diag.SpoolDir != tc.spool):
				t.Fatalf("stack with spool %q reported Diag %+v", tc.spool, rep.Diag)
			}
		})
	}
}
