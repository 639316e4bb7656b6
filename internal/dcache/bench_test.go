package dcache

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"diesel/internal/client"
	"diesel/internal/etcd"
	"diesel/internal/server"
	"diesel/internal/shuffle"
)

// benchPeer builds a single-node, single-master cache peer with every
// chunk of an nFiles×fileSize dataset preloaded, so every read is a
// local hit. This is the hot path the BenchmarkDcacheHit* family and the
// CI bench guard watch: a hit must stay near-memcpy-speed (Quiver/Hoard's
// co-located-cache condition) for the task-grained cache to pay off.
func benchPeer(b *testing.B, nFiles, fileSize int) (*Peer, []string) {
	return benchPeerShared(b, nFiles, fileSize, nil)
}

// benchPeerShared is benchPeer joined through a SharedCache (nil =
// private store) — the multi-job serving plane's hit path, which the
// alloc gate holds to the same zero-allocation bar as the private one.
func benchPeerShared(b *testing.B, nFiles, fileSize int, shared *SharedCache) (*Peer, []string) {
	b.Helper()
	peers, names := benchTask(b, nFiles, fileSize, 1<<20, []string{"node0"}, shared)
	return peers[0], names
}

// benchTask writes an nFiles×fileSize dataset in chunkTarget-sized chunks
// and joins one warm peer per entry of layout (the node ID of each rank).
func benchTask(b *testing.B, nFiles, fileSize, chunkTarget int, layout []string, shared *SharedCache) ([]*Peer, []string) {
	b.Helper()
	core := server.NewLocalStack()
	rpc, err := server.NewRPC(core, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { rpc.Close() })
	addrs := []string{rpc.Addr()}

	w, err := client.Connect(client.Options{Servers: addrs, Dataset: "ds", ChunkTarget: chunkTarget})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	names := make([]string, nFiles)
	data := make([]byte, fileSize)
	for i := range nFiles {
		rng.Read(data)
		names[i] = fmt.Sprintf("cls%02d/img%05d.jpg", i%5, i)
		if err := w.DefaultDataset().Put(names[i], data); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}

	reg := etcd.InProcess{R: etcd.NewRegistry()}
	peers := make([]*Peer, len(layout))
	errs := make([]error, len(layout))
	var wg sync.WaitGroup
	for rank, node := range layout {
		cl, err := client.Connect(client.Options{Servers: addrs, Dataset: "ds", Rank: rank})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { cl.Close() })
		if _, err := cl.DefaultDataset().DownloadSnapshot(); err != nil {
			b.Fatal(err)
		}
		wg.Add(1)
		go func() { // Join is a barrier over all ranks
			defer wg.Done()
			peers[rank], errs[rank] = Join(cl.DefaultDataset(), reg, Config{
				TaskID: "bench", NodeID: node, Rank: rank, TotalClients: len(layout), Policy: OnDemand,
				Shared: shared,
			})
		}()
	}
	wg.Wait()
	for rank, p := range peers {
		if errs[rank] != nil {
			b.Fatal(errs[rank])
		}
		b.Cleanup(func() { p.Close() })
		if err := p.LoadOwned(); err != nil {
			b.Fatal(err)
		}
	}
	return peers, names
}

// BenchmarkDcacheHit measures a local cache hit through the public read
// API (snapshot stat → shard lookup → file extraction). The "copy"
// variant is the owning ReadFile contract; "view" is the zero-copy path
// the epoch reader rides.
func BenchmarkDcacheHit(b *testing.B) {
	const nFiles, fileSize = 256, 4 << 10
	b.Run("copy", func(b *testing.B) {
		p, names := benchPeer(b, nFiles, fileSize)
		b.SetBytes(fileSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; b.Loop(); i++ {
			buf, err := p.ReadFileContext(context.Background(), names[i%len(names)])
			if err != nil {
				b.Fatal(err)
			}
			if len(buf) != fileSize {
				b.Fatalf("short read: %d", len(buf))
			}
		}
	})
	b.Run("view", func(b *testing.B) {
		p, names := benchPeer(b, nFiles, fileSize)
		ctx := context.Background()
		b.SetBytes(fileSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; b.Loop(); i++ {
			buf, err := p.ReadFileViewContext(ctx, names[i%len(names)])
			if err != nil {
				b.Fatal(err)
			}
			if len(buf) != fileSize {
				b.Fatalf("short read: %d", len(buf))
			}
		}
	})
}

// BenchmarkDcacheHitShared measures a local hit through a SharedCache —
// the (dataset, chunk)-keyed store every job of the multi-job serving
// plane reads through. The dataset-qualified store keys are precomputed
// at Join, so this must stay allocation-free like the private path.
func BenchmarkDcacheHitShared(b *testing.B) {
	const nFiles, fileSize = 256, 4 << 10
	b.Run("view", func(b *testing.B) {
		p, names := benchPeerShared(b, nFiles, fileSize, NewSharedCache(0, 0, nil))
		ctx := context.Background()
		b.SetBytes(fileSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; b.Loop(); i++ {
			buf, err := p.ReadFileViewContext(ctx, names[i%len(names)])
			if err != nil {
				b.Fatal(err)
			}
			if len(buf) != fileSize {
				b.Fatalf("short read: %d", len(buf))
			}
		}
	})
	b.Run("copy", func(b *testing.B) {
		p, names := benchPeerShared(b, nFiles, fileSize, NewSharedCache(0, 0, nil))
		b.SetBytes(fileSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; b.Loop(); i++ {
			buf, err := p.ReadFileContext(context.Background(), names[i%len(names)])
			if err != nil {
				b.Fatal(err)
			}
			if len(buf) != fileSize {
				b.Fatalf("short read: %d", len(buf))
			}
		}
	})
}

// BenchmarkDcacheHitParallel drives local hits from GOMAXPROCS
// goroutines — the convoy case the sharded store exists for: concurrent
// epoch readers on one node must not serialise behind a single store
// lock.
func BenchmarkDcacheHitParallel(b *testing.B) {
	const nFiles, fileSize = 256, 4 << 10
	p, names := benchPeer(b, nFiles, fileSize)
	b.SetBytes(fileSize)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := rand.Int()
		for pb.Next() {
			i++
			if _, err := p.ReadFileContext(context.Background(), names[i%len(names)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDcachePeerSweep measures the remote half of a chunk-wise
// epoch: rank 0 of a 2-master task reads, in plan order, every file the
// other master owns. One op is one remote sample, over the same 1 MiB
// chunks of 4 KiB files as the hit benchmarks. The remote chunks outnumber
// the pulled buffer, so every pass pulls every chunk again — the steady
// state of an epoch reader, not a warm buffer — and one untimed pass comes
// first, so dialing the master is not in the figures.
//
// rpcs/op is what the remote master served per sample: two per chunk, a
// first-touch cache.get and one cache.getChunk, which with both ends in
// this process allocate about 28 times — 0.008 RPCs and 0.11 allocations
// per sample over a whole pass. The CI allocation guard runs 50 ops, the
// first 50 samples of a group whose two remote chunks are both pulled
// within them: 0.08 RPCs and 1 alloc per op there. A remote branch gone
// back to per-file calls is 1 RPC and 13 allocations on every op.
func BenchmarkDcachePeerSweep(b *testing.B) {
	const nFiles, fileSize = 10240, 4 << 10 // 40 chunks of 256 files, 20 remote
	peers, _ := benchTask(b, nFiles, fileSize, 1<<20, []string{"node0", "node1"}, nil)
	p, remote := peers[0], peers[1]
	var paths []string
	for _, fi := range shuffle.ChunkWisePlan(p.snap, 1, 4).Files {
		if p.ownerOf(p.snap.FileMetaAt(int(fi)).ChunkIdx) != p.selfIdx {
			paths = append(paths, p.snap.FileName(int(fi)))
		}
	}
	ctx := context.Background()
	read := func(i int) {
		buf, err := p.ReadFileViewContext(ctx, paths[i%len(paths)])
		if err != nil {
			b.Fatal(err)
		}
		if len(buf) != fileSize {
			b.Fatalf("short read: %d", len(buf))
		}
	}
	for i := range paths {
		read(i)
	}
	b.SetBytes(fileSize)
	b.ReportAllocs()
	b.ResetTimer()
	served := remote.srv.Stats.Requests.Load()
	for i := 0; b.Loop(); i++ {
		read(i)
	}
	b.ReportMetric(float64(remote.srv.Stats.Requests.Load()-served)/float64(b.N), "rpcs/op")
}
