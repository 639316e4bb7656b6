// fault-recovery: exercises DIESEL's failure paths (§4.1.2 and §4.2).
//
//  1. Scenario (a): some recently written metadata is lost from the KV
//     database; the server recovers it by scanning only the chunks whose
//     time-ordered IDs fall after a timestamp.
//  2. Scenario (b): the entire in-memory metadata database is wiped
//     (power failure); a full scan of the self-contained chunks rebuilds
//     every key-value pair.
//  3. Task-grained cache failure containment: a cache master dies; reads
//     keep succeeding via server fallback, and a restarted cache recovers
//     at chunk granularity.
//
// Run with:
//
//	go run ./examples/fault-recovery
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"diesel/internal/core"
	"diesel/internal/dcache"
	"diesel/internal/meta"
	"diesel/internal/trace"
)

func main() {
	dep, err := core.Deploy(core.Config{KVNodes: 2, DieselServers: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()

	spec := trace.Spec{Name: "ds", NumFiles: 400, Classes: 8, MeanFileSize: 4 << 10, Seed: 3}
	if err := trace.Write(spec, func(w int) (trace.Putter, error) {
		c, err := dep.NewClient("ds", w)
		if err != nil {
			return nil, err
		}
		return c.DefaultDataset(), nil
	}, 2); err != nil {
		log.Fatal(err)
	}
	srv := dep.Server()
	kvBefore, _ := srv.KVSize()
	fmt.Printf("dataset written: %d files, %d metadata keys\n", spec.NumFiles, kvBefore)

	// --- Scenario (a): partial metadata loss ---
	cutoff := uint32(time.Now().Unix()) + 1
	time.Sleep(1100 * time.Millisecond) // ensure the next chunk's ID timestamp >= cutoff
	late, err := dep.NewClient("ds", 50)
	if err != nil {
		log.Fatal(err)
	}
	lateDS := late.DefaultDataset()
	lateDS.Put("late/extra.bin", []byte("written after the cutoff"))
	lateDS.Flush()
	late.Close()

	// Lose the new file's record (a KV node lost its recent writes).
	if _, err := dep.KVCluster().Del(meta.FileKey("ds", "late/extra.bin")); err != nil {
		log.Fatal(err)
	}
	r, err := dep.NewClient("ds", 51)
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()
	rds, ctx := r.DefaultDataset(), context.Background()
	if _, err := rds.Get(ctx, "late/extra.bin"); err == nil {
		log.Fatal("lost record still served?")
	}
	st, err := srv.RecoverMetadata("ds", cutoff)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scenario (a): scanned %d recent chunks (skipped %d older), rewrote %d pairs\n",
		st.ChunksScanned, st.ChunksSkipped, st.PairsWritten)
	if b, err := rds.Get(ctx, "late/extra.bin"); err != nil || string(b) != "written after the cutoff" {
		log.Fatalf("recovery (a) failed: %v", err)
	}
	fmt.Println("scenario (a): lost record recovered ✓")

	// --- Scenario (b): total metadata loss ---
	for _, kv := range dep.KVServers() {
		kv.Wipe()
	}
	if n, _ := srv.KVSize(); n != 0 {
		log.Fatal("wipe failed")
	}
	start := time.Now()
	st, err = srv.RecoverMetadata("ds", 0)
	if err != nil {
		log.Fatal(err)
	}
	kvAfter, _ := srv.KVSize()
	fmt.Printf("scenario (b): full scan of %d chunks rebuilt %d keys in %v (before: %d)\n",
		st.ChunksScanned, kvAfter, time.Since(start), kvBefore)
	order := []int{0, 99, 199, 299, 399}
	if err := trace.ReadOrder(spec, func(int) (trace.Getter, error) { return rds, nil }, 1, order); err != nil {
		log.Fatalf("post-recovery verification failed: %v", err)
	}
	fmt.Println("scenario (b): all sampled files verified after full rebuild ✓")

	// --- Cache failure containment ---
	task, err := dep.StartTask(core.TaskConfig{
		Dataset: "ds", Nodes: 2, ClientsPerNode: 2, Policy: dcache.Oneshot,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer task.Close()
	for _, p := range task.Peers {
		if p.IsMaster() {
			p.LoadOwned()
		}
	}
	// Kill node B's master (the peer with the highest master rank).
	var victim *dcache.Peer
	for _, p := range task.Peers {
		if p.IsMaster() {
			victim = p
		}
	}
	victim.Close()
	fmt.Println("killed one cache master")

	reader := task.Clients[1].DefaultDataset() // a non-master on the surviving node
	ok := 0
	for i := 0; i < spec.NumFiles; i += 10 {
		b, err := reader.Get(ctx, spec.FileName(i))
		if err != nil {
			log.Fatalf("read failed after master death: %v", err)
		}
		if err := spec.Verify(i, b); err != nil {
			log.Fatal(err)
		}
		ok++
	}
	var fallbacks, deaths uint64
	deadNow := 0
	for _, p := range task.Peers {
		fallbacks += p.Stats.ServerFallback.Load()
		deaths += p.Stats.MasterDeaths.Load()
		deadNow += p.DeadMasters()
	}
	fmt.Printf("containment: %d reads succeeded after master death (%d via server fallback) ✓\n", ok, fallbacks)
	fmt.Printf("breaker: %d master-death events; %d remote masters currently marked dead — their chunks route straight to server fallback ✓\n",
		deaths, deadNow)

	// Chunk-granular cache recovery: drop and reload the survivor.
	var survivor *dcache.Peer
	for _, p := range task.Peers {
		if p.IsMaster() && p != victim {
			survivor = p
		}
	}
	survivor.DropAll()
	start = time.Now()
	if err := survivor.LoadOwned(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cache recovery: reloaded %d chunks (%d bytes) in %v — chunk reads, not %d file reads ✓\n",
		survivor.CachedChunks(), survivor.CachedBytes(), time.Since(start), spec.NumFiles)
}
