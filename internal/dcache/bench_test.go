package dcache

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"diesel/internal/client"
	"diesel/internal/etcd"
	"diesel/internal/server"
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
	core := server.NewLocalStack()
	rpc, err := server.NewRPC(core, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { rpc.Close() })
	addrs := []string{rpc.Addr()}

	w, err := client.Connect(client.Options{Servers: addrs, Dataset: "ds", ChunkTarget: 1 << 20})
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

	cl, err := client.Connect(client.Options{Servers: addrs, Dataset: "ds"})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cl.Close() })
	if _, err := cl.DefaultDataset().DownloadSnapshot(); err != nil {
		b.Fatal(err)
	}
	reg := etcd.InProcess{R: etcd.NewRegistry()}
	p, err := Join(cl.DefaultDataset(), reg, Config{
		TaskID: "bench", NodeID: "node0", Rank: 0, TotalClients: 1, Policy: OnDemand,
		Shared: shared,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { p.Close() })
	if err := p.LoadOwned(); err != nil {
		b.Fatal(err)
	}
	return p, names
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
			buf, err := p.ReadFile(names[i%len(names)])
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
			buf, err := p.ReadFile(names[i%len(names)])
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
			if _, err := p.ReadFile(names[i%len(names)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
