package main

import (
	"context"
	"fmt"
	"log"

	"diesel/internal/client"
	"diesel/internal/cluster"
	"diesel/internal/core"
	"diesel/internal/dcache"
	"diesel/internal/epoch"
	"diesel/internal/obs"
)

// live drives a real in-process DIESEL stack — KV nodes, an RPC server
// with a tiered store, and a 2×2 DLT task with the distributed cache —
// through a write phase and two read epochs. Unlike the simulator-backed
// figures, every layer's instrumentation fires, so the registry snapshot
// -json writes afterwards carries nonzero cache hit-rates and RPC tail
// latencies alongside the figures' modeled numbers.
func live(cluster.Params) {
	fmt.Println("== live: real in-process stack (metrics for the -json snapshot) ==")
	dep, err := core.Deploy(core.Config{KVNodes: 2, SSDCacheBytes: 32 << 20})
	if err != nil {
		log.Fatalf("live: deploy: %v", err)
	}
	defer dep.Close()
	dep.Server().RegisterMetrics(obs.Default())

	const (
		dataset  = "bench-live"
		numFiles = 240
		fileSize = 4 << 10
	)
	// A small chunk target spreads the dataset over many chunks so the
	// task's masters each own several and peer reads actually happen.
	wcl, err := client.Connect(client.Options{
		User: "bench", Servers: dep.ServerAddrs(), Dataset: dataset,
		ChunkTarget: 64 << 10,
	})
	if err != nil {
		log.Fatalf("live: connect: %v", err)
	}
	payload := make([]byte, fileSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	paths := make([]string, numFiles)
	for i := range numFiles {
		paths[i] = fmt.Sprintf("cls%02d/img%04d.jpg", i%8, i)
		if err := wcl.DefaultDataset().Put(paths[i], payload); err != nil {
			log.Fatalf("live: put: %v", err)
		}
	}
	if err := wcl.DefaultDataset().Flush(); err != nil {
		log.Fatalf("live: flush: %v", err)
	}

	// One batched read against the request executor, then two cached
	// epochs through the task-grained distributed cache.
	if _, err := wcl.DefaultDataset().GetBatch(context.Background(), paths[:64]); err != nil {
		log.Fatalf("live: getbatch: %v", err)
	}
	wcl.Close()

	task, err := dep.StartTask(core.TaskConfig{
		Dataset: dataset, Nodes: 2, ClientsPerNode: 2, Policy: dcache.Oneshot,
	})
	if err != nil {
		log.Fatalf("live: start task: %v", err)
	}
	// Epoch 0: each client reads its rank's stripe of the shuffled order,
	// as a DLT data loader would, filling the cache.
	for rank, cl := range task.Clients {
		plan, err := cl.DefaultDataset().ShufflePlan(int64(rank), 4)
		if err != nil {
			log.Fatalf("live: shuffle: %v", err)
		}
		order := plan.Paths(cl.DefaultDataset().Snapshot())
		for i := rank; i < len(order); i += len(task.Clients) {
			if _, err := cl.DefaultDataset().Get(context.Background(), order[i]); err != nil {
				log.Fatalf("live: get %s: %v", order[i], err)
			}
		}
	}
	// Epoch 1: one client streams the whole reshuffled epoch through the
	// pipelined reader over the warm cache (diesel_epoch_* metrics fire).
	{
		cl := task.Clients[0]
		plan, err := cl.DefaultDataset().ShufflePlan(int64(len(task.Clients)), 4)
		if err != nil {
			log.Fatalf("live: shuffle: %v", err)
		}
		snap := cl.DefaultDataset().Snapshot()
		r := epoch.NewReader(plan, snap, epoch.NewCacheSource(task.Peers[0], snap, 0),
			epoch.WithWindow(2))
		for {
			if _, err := r.Next(); err != nil {
				break
			}
		}
		r.Close()
		if err := r.Err(); err != nil {
			log.Fatalf("live: epoch read: %v", err)
		}
	}

	var local, peer, fallback uint64
	for _, p := range task.Peers {
		local += p.Stats.LocalHits.Load()
		peer += p.Stats.PeerReads.Load()
		fallback += p.Stats.ServerFallback.Load()
	}
	task.Close()
	fmt.Printf("%-26s %d files × %d B over %d masters\n", "dataset", numFiles, fileSize, 2)
	fmt.Printf("%-26s local=%d peer=%d server-fallback=%d\n", "cache reads", local, peer, fallback)
	fmt.Printf("%-26s %.3f\n", "ssd-tier hit rate", dep.Tiered().HitRate())
	for _, m := range obs.Default().Export() {
		if m.Name == "diesel_client_get_seconds" {
			fmt.Printf("%-26s n=%d p50=%.0fµs p95=%.0fµs p99=%.0fµs\n",
				"DL_get service time", m.Count, m.P50*1e6, m.P95*1e6, m.P99*1e6)
		}
	}
	// These loops are closed: each worker issues its next read only after
	// the previous one returns, so the numbers above are service times —
	// a stalled server would slow the loop down rather than widen the
	// recorded tail (coordinated omission). For tail latency under a
	// fixed offered rate, run `diesel-bench -exp open-loop` or the full
	// cmd/diesel-load harness.
	fmt.Println("(closed-loop run: latencies are service-time-only, not open-loop tails)")
}
