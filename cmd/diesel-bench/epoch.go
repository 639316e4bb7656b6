package main

import (
	"fmt"
	"log"
	"time"

	"diesel/internal/client"
	"diesel/internal/cluster"
	"diesel/internal/core"
	"diesel/internal/epoch"
	"diesel/internal/objstore"
)

// epochExp compares the synchronous and pipelined epoch readers on a real
// in-process stack whose object store models HDD-class request latency —
// the wall-clock effect of overlapping group fetches with consumption
// (the pipelining §6.6 attributes the sustained training throughput to).
func epochExp(cluster.Params) {
	fmt.Println("== epoch: pipelined reader vs synchronous, real stack over a 2 ms-latency store ==")
	dep, err := core.Deploy(core.Config{
		Throttle: &objstore.Throttled{Latency: 2 * time.Millisecond},
	})
	if err != nil {
		log.Fatalf("epoch: deploy: %v", err)
	}
	defer dep.Close()

	const (
		dataset  = "bench-epoch"
		numFiles = 512
		fileSize = 4 << 10
	)
	wcl, err := client.Connect(client.Options{
		User: "bench", Servers: dep.ServerAddrs(), Dataset: dataset,
		ChunkTarget: 16 << 10, // ~4 files per chunk: many groups to pipeline
	})
	if err != nil {
		log.Fatalf("epoch: connect: %v", err)
	}
	payload := make([]byte, fileSize)
	for i := range numFiles {
		if err := wcl.DefaultDataset().Put(fmt.Sprintf("cls%02d/img%04d.jpg", i%8, i), payload); err != nil {
			log.Fatalf("epoch: put: %v", err)
		}
	}
	if err := wcl.DefaultDataset().Flush(); err != nil {
		log.Fatalf("epoch: flush: %v", err)
	}
	wcl.Close()

	cl, err := client.Connect(client.Options{
		User: "bench", Servers: dep.ServerAddrs(), Dataset: dataset,
	})
	if err != nil {
		log.Fatalf("epoch: connect: %v", err)
	}
	defer cl.Close()
	snap, err := cl.DefaultDataset().DownloadSnapshot()
	if err != nil {
		log.Fatalf("epoch: snapshot: %v", err)
	}

	fmt.Printf("%-10s %12s %12s %10s\n", "window", "epoch time", "files/s", "MB/s")
	var base time.Duration
	for _, window := range []int{0, 2, 4} {
		plan, err := cl.DefaultDataset().ShufflePlan(int64(window), 4)
		if err != nil {
			log.Fatalf("epoch: shuffle: %v", err)
		}
		r := epoch.NewReader(plan, snap, epoch.NewClientSource(cl.DefaultDataset(), snap, 4),
			epoch.WithWindow(window))
		start := time.Now()
		files, bytes := 0, 0
		for {
			s, err := r.Next()
			if err != nil {
				break
			}
			files++
			bytes += len(s.Data)
		}
		el := time.Since(start)
		r.Close()
		if err := r.Err(); err != nil {
			log.Fatalf("epoch: window %d: %v", window, err)
		}
		if files != numFiles {
			log.Fatalf("epoch: window %d served %d of %d files", window, files, numFiles)
		}
		note := ""
		if window == 0 {
			base = el
		} else if base > 0 {
			note = fmt.Sprintf("  (%.1fx vs window=0)", float64(base)/float64(el))
		}
		fmt.Printf("%-10d %12v %12.0f %10.1f%s\n", window, el.Round(time.Millisecond),
			float64(files)/el.Seconds(), float64(bytes)/el.Seconds()/1e6, note)
	}
}
