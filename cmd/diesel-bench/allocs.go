package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"
	"testing"
	"time"

	"diesel/internal/client"
	"diesel/internal/cluster"
	"diesel/internal/core"
	"diesel/internal/dcache"
	"diesel/internal/epoch"
	"diesel/internal/etcd"
	"diesel/internal/objstore"
	"diesel/internal/obs"
	"diesel/internal/server"
	"diesel/internal/wire"
)

// Allocation gauges on the default registry, so a -json snapshot of this
// experiment records the hot read path's allocation budget alongside the
// throughput metrics (the numbers the zero-copy work of DESIGN.md §5b is
// judged by):
//
//	diesel_bench_allocs_per_op{path}  allocations per operation
//	diesel_bench_bytes_per_op{path}   allocated bytes per operation
//
// with path ∈ {"wire-roundtrip", "dcache-hit-view", "dcache-hit-copy",
// "dcache-spill-view", "epoch-read"}.
func publishAllocs(path string, r testing.BenchmarkResult) {
	obs.Default().Gauge("diesel_bench_allocs_per_op",
		"Allocations per operation on a hot-path benchmark.",
		obs.L("path", path)).Set(r.AllocsPerOp())
	obs.Default().Gauge("diesel_bench_bytes_per_op",
		"Allocated bytes per operation on a hot-path benchmark.",
		obs.L("path", path)).Set(r.AllocedBytesPerOp())
	fmt.Printf("%-18s %10d ops %10d allocs/op %12d B/op %12v/op\n",
		path, r.N, r.AllocsPerOp(), r.AllocedBytesPerOp(),
		(r.T / time.Duration(max(r.N, 1))).Round(time.Nanosecond))
}

// spillTempDir makes a throwaway spill directory; the alloc experiment
// is a one-shot process, so cleanup rides on the OS temp dir.
func spillTempDir() string {
	dir, err := os.MkdirTemp("", "diesel-alloc-spill-*")
	if err != nil {
		log.Fatalf("alloc: spill dir: %v", err)
	}
	return dir
}

// allocExp measures allocs/op and B/op on the three hot read paths —
// wire round-trip, dcache local hit (view and copy), epoch read over the
// 2 ms store — using testing.Benchmark, and publishes them as gauges so
// `diesel-bench -exp alloc -json .` leaves a BENCH_alloc.json snapshot.
// The CI allocation guard (cmd/benchguard) watches the equivalent
// `go test -benchmem` numbers; this experiment is the runnable,
// deployment-shaped view of the same budget.
func allocExp(cluster.Params) {
	fmt.Println("== alloc: hot read path allocation budget (see also cmd/benchguard) ==")

	// --- wire round-trip: one echo RPC over loopback TCP ---
	{
		srv := wire.NewServer()
		srv.Handle("echo", func(p []byte) ([]byte, error) { return p, nil })
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			log.Fatalf("alloc: wire listen: %v", err)
		}
		cl, err := wire.Dial(addr)
		if err != nil {
			log.Fatalf("alloc: wire dial: %v", err)
		}
		payload := bytes.Repeat([]byte("x"), 1<<10)
		publishAllocs("wire-roundtrip", testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := cl.Call("echo", payload); err != nil {
					b.Fatal(err)
				}
			}
		}))
		cl.Close()
		srv.Close()
	}

	// --- dcache local hit: single-node peer with every chunk resident ---
	{
		core := server.NewLocalStack()
		rpc, err := server.NewRPC(core, "127.0.0.1:0")
		if err != nil {
			log.Fatalf("alloc: rpc: %v", err)
		}
		defer rpc.Close()
		addrs := []string{rpc.Addr()}
		w, err := client.Connect(client.Options{Servers: addrs, Dataset: "alloc", ChunkTarget: 1 << 20})
		if err != nil {
			log.Fatalf("alloc: connect: %v", err)
		}
		const nFiles, fileSize = 64, 4 << 10
		names := make([]string, nFiles)
		data := make([]byte, fileSize)
		for i := range nFiles {
			names[i] = fmt.Sprintf("cls%02d/img%05d.jpg", i%5, i)
			if err := w.DefaultDataset().Put(names[i], data); err != nil {
				log.Fatalf("alloc: put: %v", err)
			}
		}
		if err := w.Close(); err != nil {
			log.Fatalf("alloc: close writer: %v", err)
		}
		cl, err := client.Connect(client.Options{Servers: addrs, Dataset: "alloc"})
		if err != nil {
			log.Fatalf("alloc: connect reader: %v", err)
		}
		defer cl.Close()
		if _, err := cl.DefaultDataset().DownloadSnapshot(); err != nil {
			log.Fatalf("alloc: snapshot: %v", err)
		}
		p, err := dcache.Join(cl.DefaultDataset(), etcd.InProcess{R: etcd.NewRegistry()}, dcache.Config{
			TaskID: "alloc", NodeID: "node0", Rank: 0, TotalClients: 1, Policy: dcache.OnDemand,
		})
		if err != nil {
			log.Fatalf("alloc: join: %v", err)
		}
		defer p.Close()
		if err := p.LoadOwned(); err != nil {
			log.Fatalf("alloc: load: %v", err)
		}
		ctx := context.Background()
		publishAllocs("dcache-hit-view", testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				if _, err := p.ReadFileViewContext(ctx, names[i%len(names)]); err != nil {
					b.Fatal(err)
				}
			}
		}))
		publishAllocs("dcache-hit-copy", testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				if _, err := p.ReadFileContext(ctx, names[i%len(names)]); err != nil {
					b.Fatal(err)
				}
			}
		}))

		// Spill-tier read: a second peer whose whole working set lives on
		// local disk (promotion off), so every view is one pread. The
		// budget gated by cmd/benchguard is <= 2 allocs/op on this path.
		sp, err := dcache.Join(cl.DefaultDataset(), etcd.InProcess{R: etcd.NewRegistry()}, dcache.Config{
			TaskID: "alloc-spill", NodeID: "node0", Rank: 0, TotalClients: 1, Policy: dcache.OnDemand,
			SpillDir: spillTempDir(), SpillPromoteAfter: -1,
		})
		if err != nil {
			log.Fatalf("alloc: join spill peer: %v", err)
		}
		defer sp.Close()
		if err := sp.LoadOwned(); err != nil {
			log.Fatalf("alloc: load spill peer: %v", err)
		}
		sp.DemoteAll()
		publishAllocs("dcache-spill-view", testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				if _, err := sp.ReadFileViewContext(ctx, names[i%len(names)]); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}

	// --- epoch read: one chunk-wise epoch against the 2 ms store ---
	{
		dep, err := core.Deploy(core.Config{
			Throttle: &objstore.Throttled{Latency: 2 * time.Millisecond},
		})
		if err != nil {
			log.Fatalf("alloc: deploy: %v", err)
		}
		defer dep.Close()
		w, err := client.Connect(client.Options{
			User: "bench", Servers: dep.ServerAddrs(), Dataset: "alloc-epoch",
			ChunkTarget: 8 << 10,
		})
		if err != nil {
			log.Fatalf("alloc: connect: %v", err)
		}
		const files, fileSize = 128, 2 << 10
		data := make([]byte, fileSize)
		for i := range files {
			if err := w.DefaultDataset().Put(fmt.Sprintf("c%02d/f%05d", i%8, i), data); err != nil {
				log.Fatalf("alloc: put: %v", err)
			}
		}
		w.Close()
		cl, err := client.Connect(client.Options{
			User: "bench", Servers: dep.ServerAddrs(), Dataset: "alloc-epoch",
		})
		if err != nil {
			log.Fatalf("alloc: connect reader: %v", err)
		}
		defer cl.Close()
		snap, err := cl.DefaultDataset().DownloadSnapshot()
		if err != nil {
			log.Fatalf("alloc: snapshot: %v", err)
		}
		publishAllocs("epoch-read", testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				plan, err := cl.DefaultDataset().ShufflePlan(int64(i), 4)
				if err != nil {
					b.Fatal(err)
				}
				r := epoch.NewReader(plan, snap, epoch.NewClientSource(cl.DefaultDataset(), snap, 4),
					epoch.WithWindow(2))
				n := 0
				for {
					if _, err := r.Next(); err != nil {
						break
					}
					n++
				}
				r.Close()
				if r.Err() != nil {
					b.Fatal(r.Err())
				}
				if n != files {
					b.Fatalf("epoch served %d of %d files", n, files)
				}
			}
		}))
	}
}
