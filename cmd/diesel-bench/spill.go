package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"diesel/internal/client"
	"diesel/internal/cluster"
	"diesel/internal/core"
	"diesel/internal/dcache"
	"diesel/internal/objstore"
	"diesel/internal/obs"
)

// spillExp measures what the RAM → local-SSD spill tier buys when the
// cache cannot hold the working set: a task whose per-master capacity is
// 25% of the dataset reads epochs against a 2 ms throttled store, first
// without spill (every evicted chunk is refetched from the store each
// epoch) and then with it (evicted chunks come back by local pread).
// A third phase restarts the task over the same spill directory and
// shows the warm-restart story: the first epoch after the restart is
// served almost entirely from local disk, not the servers — the
// Figure 11b recovery ramp collapsed to disk bandwidth.
//
// The acceptance shape (gated by the CI memory-constrained smoke and
// recorded in EXPERIMENTS.md): spill-enabled steady-state epoch read
// throughput at least 3x the no-spill refetch baseline, and the
// restarted task serving >= 90% of its first epoch locally.
func spillExp(cluster.Params) {
	fmt.Println("== spill: two-level dcache (RAM -> local-SSD) vs refetch, 25% RAM, 2ms store ==")
	throttle := &objstore.Throttled{Latency: 2 * time.Millisecond}
	dep, err := core.Deploy(core.Config{Throttle: throttle})
	if err != nil {
		log.Fatalf("spill: deploy: %v", err)
	}
	defer dep.Close()

	const (
		dataset     = "bench-spill"
		numFiles    = 256
		fileSize    = 8 << 10
		chunkTarget = 32 << 10
	)
	totalBytes := int64(numFiles) * fileSize
	capacity := totalBytes / 4 // RAM holds a quarter of the dataset

	wcl, err := client.Connect(client.Options{
		User: "bench", Servers: dep.ServerAddrs(), Dataset: dataset,
		ChunkTarget: chunkTarget,
	})
	if err != nil {
		log.Fatalf("spill: connect: %v", err)
	}
	payload := make([]byte, fileSize)
	names := make([]string, numFiles)
	for i := range numFiles {
		names[i] = fmt.Sprintf("cls%02d/img%04d.jpg", i%8, i)
		if err := wcl.DefaultDataset().Put(names[i], payload); err != nil {
			log.Fatalf("spill: put: %v", err)
		}
	}
	if err := wcl.DefaultDataset().Flush(); err != nil {
		log.Fatalf("spill: flush: %v", err)
	}
	snap, err := wcl.DefaultDataset().DownloadSnapshot()
	if err != nil {
		log.Fatalf("spill: snapshot: %v", err)
	}
	numChunks := len(snap.Chunks)
	wcl.Close()

	spillDir, err := os.MkdirTemp("", "diesel-bench-spill-*")
	if err != nil {
		log.Fatalf("spill: tempdir: %v", err)
	}
	defer os.RemoveAll(spillDir)

	chunkLoads := func(t *core.Task) uint64 {
		var n uint64
		for _, p := range t.Peers {
			n += p.Stats.ChunkLoads.Load()
		}
		return n
	}
	// One epoch = every file once, in order; sequential chunk access with
	// a 25% LRU is the refetch worst case the spill tier exists to fix.
	epochMBps := func(t *core.Task, label string, epoch int) float64 {
		loads0 := chunkLoads(t)
		start := time.Now()
		for _, name := range names {
			if _, err := t.Peers[0].ReadFileContext(context.Background(), name); err != nil {
				log.Fatalf("spill: %s read %s: %v", label, name, err)
			}
		}
		el := time.Since(start)
		mbps := float64(totalBytes) / el.Seconds() / 1e6
		sp := t.Peers[0].SpillStats()
		fmt.Printf("%-22s %6d %12v %10.1f %12d %11d\n",
			label, epoch, el.Round(time.Millisecond), mbps, chunkLoads(t)-loads0, sp.Hits)
		return mbps
	}

	fmt.Printf("dataset: %d files x %d B = %d B in %d chunks; cache capacity %d B (25%%)\n",
		numFiles, fileSize, totalBytes, numChunks, capacity)
	fmt.Printf("%-22s %6s %12s %10s %12s %11s\n",
		"phase", "epoch", "time", "MB/s", "chunk-loads", "spill-hits")

	// Phase 1: capacity-bound cache, no spill — steady state refetches.
	base, err := dep.StartTask(core.TaskConfig{
		Dataset: dataset, Nodes: 1, ClientsPerNode: 1,
		Policy: dcache.OnDemand, CapacityBytes: capacity,
		JobID: "spill-base",
	})
	if err != nil {
		log.Fatalf("spill: start baseline task: %v", err)
	}
	epochMBps(base, "no spill", 1)
	baseMBps := epochMBps(base, "no spill", 2)
	base.Close()

	// Phase 2: same capacity with the spill tier — epoch 1 demotes the
	// overflow to local disk, epoch 2 reads it back by pread.
	spilled, err := dep.StartTask(core.TaskConfig{
		Dataset: dataset, Nodes: 1, ClientsPerNode: 1,
		Policy: dcache.OnDemand, CapacityBytes: capacity,
		JobID: "spill-on", SpillDir: spillDir,
	})
	if err != nil {
		log.Fatalf("spill: start spill task: %v", err)
	}
	epochMBps(spilled, "spill", 1)
	spillMBps := epochMBps(spilled, "spill", 2)
	// Graceful stop: push the RAM-resident remainder down too, so the
	// restarted task can rewarm the whole working set from local disk.
	for _, p := range spilled.Peers {
		p.DemoteAll()
	}
	spilled.Close()

	// Phase 3: restart over the same spill directory — the warm restart.
	warm, err := dep.StartTask(core.TaskConfig{
		Dataset: dataset, Nodes: 1, ClientsPerNode: 1,
		Policy: dcache.OnDemand, CapacityBytes: capacity,
		JobID: "spill-warm", SpillDir: spillDir,
	})
	if err != nil {
		log.Fatalf("spill: restart task: %v", err)
	}
	rewarmChunks, rewarmBytes := warm.Peers[0].Rewarmed()
	warmMBps := epochMBps(warm, "warm restart", 1)
	warmLoads := chunkLoads(warm)
	localFrac := 1 - float64(warmLoads)/float64(numChunks)
	warm.Close()

	speedup := spillMBps / baseMBps
	fmt.Printf("spill speedup: %.1fx over refetch baseline (%.1f vs %.1f MB/s; acceptance >= 3x)\n",
		speedup, spillMBps, baseMBps)
	fmt.Printf("warm restart: rewarmed %d chunks (%d B) from manifest; %.0f%% of first epoch served locally (%d server loads of %d chunks)\n",
		rewarmChunks, rewarmBytes, 100*localFrac, warmLoads, numChunks)

	g := func(phase string) *obs.Gauge {
		return obs.Default().Gauge("diesel_bench_spill_read_mbps",
			"Epoch read throughput of the spill experiment by phase (MB/s).",
			obs.L("phase", phase))
	}
	g("baseline").Set(int64(baseMBps))
	g("spill").Set(int64(spillMBps))
	g("warm-restart").Set(int64(warmMBps))
	obs.Default().Gauge("diesel_bench_spill_speedup_x10",
		"Spill vs refetch epoch throughput speedup, tenths (42 = 4.2x).").
		Set(int64(speedup * 10))
	obs.Default().Gauge("diesel_bench_spill_warm_local_pct",
		"Percent of the restarted task's first epoch served without server loads.").
		Set(int64(100 * localFrac))
}
