// imagenet-train: an end-to-end DLT task over DIESEL, the workload the
// paper's introduction motivates.
//
// It writes an ImageNet-shaped synthetic dataset (scaled down to run on a
// laptop), stands up a 4-node training task whose 8 I/O workers share a
// task-grained distributed cache (one master client per node, Figure 7),
// and runs several training epochs: each epoch generates a chunk-wise
// shuffled file order (Figure 8) and streams every file through the
// cache, verifying contents. It reports per-epoch read throughput, cache
// hit composition, and the executor/cache statistics.
//
// Run with:
//
//	go run ./examples/imagenet-train
package main

import (
	"fmt"
	"log"
	"time"

	"diesel/internal/core"
	"diesel/internal/dcache"
	"diesel/internal/epoch"
	"diesel/internal/trace"
	"diesel/internal/train"
)

func main() {
	const (
		nodes          = 4
		clientsPerNode = 2
		epochs         = 3
		groupSize      = 4
	)
	spec := trace.Spec{
		Name: "imagenet", NumFiles: 1200, Classes: 40,
		MeanFileSize: 8 << 10, SizeSpread: 0.5, Seed: 77,
	}

	dep, err := core.Deploy(core.Config{KVNodes: 3, DieselServers: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()

	// Data preparation: 4 concurrent writers pack files into chunks.
	start := time.Now()
	err = trace.Write(spec, func(w int) (trace.Putter, error) {
		c, err := dep.NewClient(spec.Name, 1000+w)
		if err != nil {
			return nil, err
		}
		return c.DefaultDataset(), nil
	}, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("prepared %d files (%.1f MB) in %v\n",
		spec.NumFiles, float64(spec.TotalBytes())/1e6, time.Since(start))

	// Start the DLT task: snapshot download + distributed-cache join.
	task, err := dep.StartTask(core.TaskConfig{
		Dataset: spec.Name,
		Nodes:   nodes, ClientsPerNode: clientsPerNode,
		Policy: dcache.Oneshot,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer task.Close()
	masters := 0
	for _, p := range task.Peers {
		if p.IsMaster() {
			masters++
		}
	}
	fmt.Printf("task started: %d clients on %d nodes, %d cache masters\n",
		len(task.Clients), nodes, masters)

	// Training epochs, the Figure 1 pattern: each epoch builds a chunk-wise
	// shuffle plan, and the pipelined epoch reader prefetches whole chunk
	// groups through the distributed cache while the "training loop" (here:
	// verification) consumes batches in plan order.
	ds := task.Clients[0].DefaultDataset()
	snap := ds.Snapshot()
	for ep := range epochs {
		plan, err := ds.ShufflePlan(int64(ep), groupSize)
		if err != nil {
			log.Fatal(err)
		}
		order := plan.Paths(snap)
		idx := make([]int, len(order))
		for i, path := range order {
			// Recover the trace index from the file name suffix.
			fmt.Sscanf(path[len(path)-11:], "%07d.bin", &idx[i])
		}

		epochStart := time.Now()
		reader := epoch.NewReader(plan, snap,
			epoch.NewCacheSource(task.Peers[0], snap, 8),
			epoch.WithWindow(2))
		loader := train.NewEpochLoader(reader, train.WithBatchSize(64))
		pos := 0
		for {
			b, ok, err := loader.Next()
			if err != nil {
				log.Fatal(err)
			}
			if !ok {
				break
			}
			for _, data := range b.Data {
				if err := spec.Verify(idx[pos], data); err != nil {
					log.Fatal(err)
				}
				pos++
			}
		}
		loader.Close()
		elapsed := time.Since(epochStart)
		fmt.Printf("epoch %d: %d files in %v (%.0f files/s, %.1f MB/s)\n",
			ep, len(order), elapsed,
			float64(len(order))/elapsed.Seconds(),
			float64(spec.TotalBytes())/1e6/elapsed.Seconds())
	}

	// Cache statistics: after the oneshot prefetch, epochs are all hits.
	var local, peer, loads, fallback uint64
	for _, p := range task.Peers {
		local += p.Stats.LocalHits.Load()
		peer += p.Stats.PeerReads.Load()
		loads += p.Stats.ChunkLoads.Load()
		fallback += p.Stats.ServerFallback.Load()
	}
	fmt.Printf("cache: %d local hits, %d peer reads, %d chunk loads, %d server fallbacks\n",
		local, peer, loads, fallback)
}
