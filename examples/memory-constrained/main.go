// memory-constrained: the §4.3 scenario — the dataset does not fit in
// the task-grained distributed cache, and the epoch order decides whether
// the cache works at all.
//
// A dataset of ~25 chunks is served through a cache capped at 3 chunks.
// The same epoch is read twice:
//
//   - in chunk-wise shuffled order (group size ≤ cache capacity): reads
//     stay within one group of chunks at a time, so each chunk is pulled
//     from the DIESEL server exactly once per epoch;
//   - in fully shuffled order: reads hop chunks at random and the tiny
//     cache thrashes, re-pulling chunks over and over.
//
// The backend chunk loads per epoch are the whole story: same files, same
// cache, same randomized-per-epoch training semantics — an order-of-
// magnitude difference in backend traffic.
//
// Two further phases show the two-level cache (RAM → local-SSD spill):
// the same thrashing full-shuffle order with a spill tier under the RAM
// budget stops re-pulling chunks from the server once the first epoch has
// demoted them, and a restarted task over the same spill directory
// rewarms from local disk and serves its first epoch without the server.
//
// Run with:
//
//	go run ./examples/memory-constrained
//
// CI runs it with -assert, which turns the two spill claims into exit
// codes: second-epoch spill hit rate ≥ minSpillHitRate and the restarted
// task serving ≥ minLocalFrac of first-epoch reads locally. The summary
// line (server chunk loads per full-shuffle epoch: no spill, spill,
// restart) is what EXPERIMENTS.md quotes; the counts are deterministic.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"diesel/internal/client"
	"diesel/internal/core"
	"diesel/internal/dcache"
	"diesel/internal/epoch"
	"diesel/internal/shuffle"
	"diesel/internal/spill"
	"diesel/internal/trace"
)

// The -assert gates.
const (
	minSpillHitRate = 0.5 // second-epoch spill hit rate
	minLocalFrac    = 0.9 // restart first-epoch reads served without the server
)

func main() {
	assert := flag.Bool("assert", false, "exit non-zero when a spill gate fails (CI mode)")
	flag.Parse()
	dep, err := core.Deploy(core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()

	// ~25 chunks of 64 KiB.
	spec := trace.Spec{Name: "big", NumFiles: 1600, Classes: 16, MeanFileSize: 1 << 10, Seed: 9}
	if err := trace.Write(spec, func(w int) (trace.Putter, error) {
		// Small chunk target so the example has many chunks to shuffle.
		c, err := client.Connect(client.Options{
			Servers: dep.ServerAddrs(), Dataset: spec.Name,
			Rank: 100 + w, ChunkTarget: 64 << 10,
		})
		if err != nil {
			return nil, err
		}
		return c.DefaultDataset(), nil
	}, 1); err != nil {
		log.Fatal(err)
	}

	// One node, one client, cache capped at ~3 chunks' payload.
	const capacity = 3*64*1024 + 4096
	cache := dcache.NewSharedCache(capacity, 0, nil)
	task, err := dep.StartTask(core.TaskConfig{
		Dataset: spec.Name, Nodes: 1, ClientsPerNode: 1,
		Policy: dcache.OnDemand, Shared: cache,
	})
	if err != nil {
		log.Fatal(err)
	}
	ds, peer := task.Clients[0].DefaultDataset(), task.Peers[0]
	snap, ctx := ds.Snapshot(), context.Background()
	fmt.Printf("dataset: %d files in %d chunks (%.1f MB); cache capacity: %d chunks\n",
		snap.NumFiles(), len(snap.Chunks), float64(snap.TotalBytes())/1e6, 3)

	report := func(label string, before uint64, start time.Time) uint64 {
		loads := peer.Stats.ChunkLoads.Load() - before
		fmt.Printf("%-22s %5d backend chunk loads  (%.2fx dataset)  epoch took %v\n",
			label, loads, float64(loads)/float64(len(snap.Chunks)), time.Since(start))
		return loads
	}

	// Chunk-wise epoch through the epoch reader. The window must be 0
	// here: the cache holds 3 chunks and each group spans 2, so prefetching
	// even one group ahead would evict the group being consumed — the
	// reader's knob exists precisely to match the window to cache headroom.
	{
		plan, err := ds.ShufflePlan(42, 2)
		if err != nil {
			log.Fatal(err)
		}
		peer.DropAll()
		before := peer.Stats.ChunkLoads.Load()
		start := time.Now()
		r := epoch.NewReader(plan, snap, epoch.NewCacheSource(peer, snap, 4),
			epoch.WithWindow(0))
		for {
			if _, err := r.Next(); err != nil {
				break
			}
		}
		r.Close()
		if err := r.Err(); err != nil {
			log.Fatalf("chunk-wise: %v", err)
		}
		report("chunk-wise shuffle:", before, start)
	}

	// Fully shuffled epoch: plain per-file reads in a chunk-hopping order.
	var noSpillLoads uint64
	{
		order := shuffle.Dataset(snap, 42)
		peer.DropAll()
		before := peer.Stats.ChunkLoads.Load()
		start := time.Now()
		for _, path := range order {
			if _, err := ds.Get(ctx, path); err != nil {
				log.Fatalf("full shuffle: %v", err)
			}
		}
		noSpillLoads = report("full dataset shuffle:", before, start)
	}
	task.Close()
	cache.Close()

	fmt.Println("\nsame files, same cache — only the order differs (§4.3's point).")

	// ---- Two-level cache: same thrashing order, spill tier under the RAM budget.

	spillDir, err := os.MkdirTemp("", "memory-constrained-spill-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(spillDir)

	failed := false
	gate := func(name string, got, want float64) {
		status := "ok"
		if got < want {
			status = "FAIL"
			failed = true
		}
		if *assert {
			fmt.Printf("gate %-28s %.3f (want >= %.3f)  %s\n", name+":", got, want, status)
		}
	}

	// Same RAM budget, worst-case order, spill enabled. Epoch 1 pulls every
	// chunk from the server once and demotes evictions to local disk; epoch
	// 2's RAM misses land in the spill tier instead of going back out.
	spillCache := func() (*dcache.SharedCache, spill.Recovered) {
		c := dcache.NewSharedCache(capacity, 0, nil)
		rec, err := c.EnableSpill(spillDir, 0)
		if err != nil {
			log.Fatal(err)
		}
		return c, rec
	}
	scache, _ := spillCache()
	spilled, err := dep.StartTask(core.TaskConfig{
		Dataset: spec.Name, Nodes: 1, ClientsPerNode: 1,
		Policy: dcache.OnDemand, JobID: "mc-spill", Shared: scache,
	})
	if err != nil {
		log.Fatal(err)
	}
	scl, speer := spilled.Clients[0].DefaultDataset(), spilled.Peers[0]
	epochReads := func(ds *client.Dataset, p *dcache.Peer, seed int64) (loads uint64, dur time.Duration, reads int) {
		order := shuffle.Dataset(snap, seed)
		before := p.Stats.ChunkLoads.Load()
		start := time.Now()
		for _, path := range order {
			if _, err := ds.Get(ctx, path); err != nil {
				log.Fatalf("spill epoch: %v", err)
			}
		}
		return p.Stats.ChunkLoads.Load() - before, time.Since(start), len(order)
	}

	fmt.Println("\nwith a local-SSD spill tier under the same RAM budget:")
	loads1, dur1, _ := epochReads(scl, speer, 42)
	pre := scache.SpillStats()
	loads2, dur2, _ := epochReads(scl, speer, 43)
	post := scache.SpillStats()
	hits, misses := post.Hits-pre.Hits, post.Misses-pre.Misses
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	fmt.Printf("%-22s %5d backend chunk loads  epoch took %v\n", "spill epoch 1 (cold):", loads1, dur1)
	fmt.Printf("%-22s %5d backend chunk loads  epoch took %v  (spill hit rate %.0f%%)\n",
		"spill epoch 2 (warm):", loads2, dur2, 100*hitRate)
	gate("spill-hit-rate", hitRate, minSpillHitRate)

	// Warm restart: flush the RAM residents down, close the task, and
	// rejoin over the same spill directory. A scan of its segments rewarms
	// the cache from local disk; the first epoch after restart should
	// barely touch the server at all.
	scache.DemoteAll()
	spilled.Close()
	scache.Close()
	rcache, rewarmed := spillCache()
	defer rcache.Close()
	restarted, err := dep.StartTask(core.TaskConfig{
		Dataset: spec.Name, Nodes: 1, ClientsPerNode: 1,
		Policy: dcache.OnDemand, JobID: "mc-warm", Shared: rcache,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer restarted.Close()
	rcl, rpeer := restarted.Clients[0].DefaultDataset(), restarted.Peers[0]
	fmt.Printf("\nrestarted over the same spill dir: rewarmed %d chunks (%.1f MB) from local disk\n",
		rewarmed.Entries, float64(rewarmed.Bytes)/1e6)
	rloads, rdur, rreads := epochReads(rcl, rpeer, 44)
	localFrac := 1 - float64(rloads)/float64(rreads)
	fmt.Printf("%-22s %5d backend chunk loads  epoch took %v  (%.1f%% of reads served locally)\n",
		"restart epoch 1:", rloads, rdur, 100*localFrac)
	gate("restart-local-frac", localFrac, minLocalFrac)

	fmt.Printf("\nserver chunk loads per full-shuffle epoch (%d chunks, RAM for 3): no spill %d, spill %d, restart %d\n",
		len(snap.Chunks), noSpillLoads, loads2, rloads)
	fmt.Println("same cache budget — the spill tier turns refetches into local preads (Fig. 11b/12).")
	if *assert && failed {
		fmt.Println("ASSERT FAILED")
		os.Exit(1)
	}
}
