package loadgen

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestStartStackAndRunEmbedded stands up a real loopback stack (2 kv
// nodes, 2 DIESEL servers, a small dataset) and drives a short open-loop
// run with a mixed workload and a disk-slow fault window — the end-to-end
// path cmd/diesel-load and the CI capacity smoke use.
func TestStartStackAndRunEmbedded(t *testing.T) {
	st, err := StartStack(StackConfig{
		Files:     96,
		FileSizeB: 1024,
		Clients:   3,
	})
	if err != nil {
		t.Fatalf("StartStack: %v", err)
	}
	defer st.Close()
	if len(st.ChunkIDs) == 0 {
		t.Fatal("no chunk IDs collected")
	}

	ops, err := st.Ops("get=4,direct=1,batch=1,chunk=1,stat=1")
	if err != nil {
		t.Fatalf("Ops: %v", err)
	}
	sched, err := st.ParseSchedule("150ms+150ms:disk-slow:3ms")
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	rep, err := st.RunEmbedded(context.Background(), Config{
		Rate:        400,
		Duration:    450 * time.Millisecond,
		Concurrency: 16,
		Seed:        3,
		Ops:         ops,
		Faults:      sched,
	})
	if err != nil {
		t.Fatalf("RunEmbedded: %v", err)
	}
	if rep.Ops == 0 {
		t.Fatal("no operations completed")
	}
	if rep.ErrorRate() > 0.01 {
		t.Errorf("error rate %.3f over steady stack, want ~0", rep.ErrorRate())
	}
	if len(rep.FaultErrors) != 0 {
		t.Errorf("fault errors: %v", rep.FaultErrors)
	}
	// The disk-slow window must both have run ops and hurt: its service
	// p50 carries the extra 3ms while steady ops stay far under it.
	var steady, slow *PhaseReport
	for i := range rep.Phases {
		switch rep.Phases[i].Name {
		case "steady":
			steady = &rep.Phases[i]
		case "disk-slow":
			slow = &rep.Phases[i]
		}
	}
	if steady == nil || slow == nil {
		t.Fatalf("missing phases in %+v", rep.Phases)
	}
	if slow.Open.Count == 0 {
		t.Fatal("no ops attributed to the disk-slow window")
	}
	if slow.Service.P90S < 0.003 {
		t.Errorf("disk-slow service p90 = %.4fs, want >= 3ms window latency", slow.Service.P90S)
	}
	if rep.Runtime == nil {
		t.Error("runtime self-telemetry missing from report")
	}
	if rep.Counters == nil {
		t.Error("counter deltas missing from embedded report")
	}
}

func TestParseScheduleErrors(t *testing.T) {
	st, err := StartStack(StackConfig{Files: 4, FileSizeB: 64, Clients: 1, KVNodes: 1, Servers: 1})
	if err != nil {
		t.Fatalf("StartStack: %v", err)
	}
	defer st.Close()

	good := []string{
		"1s+1s:kv-kill:0",
		"1s+1s:server-kill:0",
		"1s+1s:disk-slow:5ms",
		"1s+1s:disk-tail:50x18ms",
		"1s+1s:net-delay:2ms; 3s+1s:net-drop:0.5",
		"1s+1s:net-sever:1",
	}
	for _, spec := range good {
		if _, err := st.ParseSchedule(spec); err != nil {
			t.Errorf("ParseSchedule(%q): %v", spec, err)
		}
	}
	bad := map[string]string{
		"1s:disk-slow:5ms":                         "window must be start+dur",
		"1s+1s:kv-kill:9":                          "out of range",
		"1s+1s:warp-core:1":                        "unknown fault kind",
		"1s+1s:net-drop:1.5":                       "probability",
		"1s+1s:disk-tail:18ms":                     "disk-tail wants",
		"1s+1s:disk-tail:1x5ms":                    "disk-tail wants",
		"2s+2s:disk-slow:1ms; 3s+1s:net-delay:1ms": "overlaps",
	}
	for spec, wantSub := range bad {
		_, err := st.ParseSchedule(spec)
		if err == nil || !strings.Contains(err.Error(), wantSub) {
			t.Errorf("ParseSchedule(%q) = %v, want error containing %q", spec, err, wantSub)
		}
	}
}

// TestDiskTailEpochReaders drives a short run with a disk-tail straggler
// window while a hedged, reorder-enabled background epoch reader loops —
// the shape of the CI disk-tail smoke. The report must carry the epoch
// stall summary benchguard gates on, and the reader must finish epochs
// through the fault window.
func TestDiskTailEpochReaders(t *testing.T) {
	st, err := StartStack(StackConfig{
		Files:         96,
		FileSizeB:     1024,
		Clients:       2,
		EpochReaders:  1,
		EpochHedge:    true,
		EpochReorder:  2,
		EpochDeadline: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("StartStack: %v", err)
	}
	defer st.Close()

	ops, err := st.Ops("get=1")
	if err != nil {
		t.Fatalf("Ops: %v", err)
	}
	sched, err := st.ParseSchedule("100ms+250ms:disk-tail:10x5ms")
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	rep, err := st.RunEmbedded(context.Background(), Config{
		Rate:        200,
		Duration:    450 * time.Millisecond,
		Concurrency: 8,
		Seed:        5,
		Ops:         ops,
		Faults:      sched,
	})
	if err != nil {
		t.Fatalf("RunEmbedded: %v", err)
	}
	if len(rep.FaultErrors) != 0 {
		t.Fatalf("fault errors: %v", rep.FaultErrors)
	}
	if rep.ErrorRate() > 0.01 {
		t.Errorf("error rate %.3f under disk-tail, want ~0", rep.ErrorRate())
	}
	if rep.EpochStall == nil || rep.EpochStall.Count == 0 {
		t.Fatalf("epoch stall summary missing from report: %+v", rep.EpochStall)
	}
	if rep.Counters["loadgen_background_epochs"] == 0 {
		t.Error("background epoch reader completed no epochs")
	}
}

// TestServerKillFailover kills one of the two DIESEL servers mid-run and
// checks the run survives: clients fail over to the remaining server
// (retries show up in the counter deltas), and the killed server serves
// again after its Restart.
func TestServerKillFailover(t *testing.T) {
	st, err := StartStack(StackConfig{Files: 48, FileSizeB: 512, Clients: 2})
	if err != nil {
		t.Fatalf("StartStack: %v", err)
	}
	defer st.Close()

	ops, err := st.Ops("get=1")
	if err != nil {
		t.Fatalf("Ops: %v", err)
	}
	sched, err := st.ParseSchedule("100ms+200ms:server-kill:0")
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	rep, err := st.RunEmbedded(context.Background(), Config{
		Rate:        300,
		Duration:    500 * time.Millisecond,
		Concurrency: 8,
		Seed:        9,
		Ops:         ops,
		Faults:      sched,
	})
	if err != nil {
		t.Fatalf("RunEmbedded: %v", err)
	}
	if len(rep.FaultErrors) != 0 {
		t.Fatalf("fault errors: %v", rep.FaultErrors)
	}
	// Failover keeps the run alive: the overwhelming majority of ops
	// succeed even though one of two servers was down for 40% of the run.
	if rep.ErrorRate() > 0.05 {
		t.Errorf("error rate %.3f with failover, want < 5%%", rep.ErrorRate())
	}
	// The revived server must answer again.
	cl := st.Clients[0]
	if _, err := cl.DefaultDataset().Get(context.Background(), st.Paths[0]); err != nil {
		t.Errorf("read after restart: %v", err)
	}
}
