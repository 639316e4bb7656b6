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
	"diesel/internal/testkit"
)

// benchPeer builds a single-node, single-master cache peer with every
// chunk of an nFiles×fileSize dataset preloaded, so every read is a
// local hit. This is the hot path the BenchmarkDcacheHit* family times
// and TestHitAllocations holds to its tables: a hit must stay
// near-memcpy-speed (Quiver/Hoard's co-located-cache condition) for the
// task-grained cache to pay off.
func benchPeer(b testing.TB, nFiles, fileSize int) (*Peer, []string) {
	return benchPeerShared(b, nFiles, fileSize, nil)
}

// benchPeerShared is benchPeer joined through a SharedCache (nil =
// private store) — the multi-job serving plane's hit path, held to the
// same tables as the private one.
func benchPeerShared(b testing.TB, nFiles, fileSize int, shared *SharedCache) (*Peer, []string) {
	b.Helper()
	peers, names := benchTask(b, nFiles, fileSize, 1<<20, []string{"node0"}, shared)
	return peers[0], names
}

// benchTask writes an nFiles×fileSize dataset in chunkTarget-sized chunks
// and joins one warm peer per entry of layout (the node ID of each rank).
func benchTask(b testing.TB, nFiles, fileSize, chunkTarget int, layout []string, shared *SharedCache) ([]*Peer, []string) {
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

// hitRead returns one local hit through the public read API (snapshot
// stat → shard lookup → file extraction), on the next of names: the
// owning ReadFile contract, or the zero-copy view the epoch reader rides.
func hitRead(tb testing.TB, p *Peer, names []string, view bool) func() {
	read, i := p.ReadFileContext, 0
	if view {
		read = p.ReadFileViewContext
	}
	return func() {
		buf, err := read(context.Background(), names[i%len(names)])
		if err != nil {
			tb.Fatal(err)
		}
		if len(buf) != hitFileSize {
			tb.Fatalf("short read: %d", len(buf))
		}
		i++
	}
}

const hitFiles, hitFileSize = 256, 4 << 10

// hitTables: a copy allocates the file its caller keeps, a view nothing.
var hitTables = map[string]testkit.Table{
	"copy": {
		Sites:  map[string]float64{"dcache.fileOf ← dcache.(*Peer).readLocal": 1},
		Other:  0.01,
		Allocs: 1.01,
		Bytes:  4505,
	},
	"view": testkit.Nothing,
}

// hitPeer is benchPeer over hitFiles files, through a SharedCache of its
// own when shared.
func hitPeer(tb testing.TB, shared bool) (*Peer, []string) {
	var sc *SharedCache
	if shared {
		sc = NewSharedCache(0, 0, nil)
	}
	return benchPeerShared(tb, hitFiles, hitFileSize, sc)
}

// TestHitAllocations holds a local hit, copy and view, through a private
// store and through a SharedCache, to hitTables.
func TestHitAllocations(t *testing.T) {
	for _, shared := range []bool{false, true} {
		for _, kind := range []string{"copy", "view"} {
			t.Run(fmt.Sprintf("shared=%t/%s", shared, kind), func(t *testing.T) {
				p, names := hitPeer(t, shared)
				testkit.Check(t, hitTables[kind], testkit.Sites(2000, hitRead(t, p, names, kind == "view")))
			})
		}
	}
}

func benchHit(b *testing.B, shared bool) {
	for _, kind := range []string{"copy", "view"} {
		b.Run(kind, func(b *testing.B) {
			p, names := hitPeer(b, shared)
			read := hitRead(b, p, names, kind == "view")
			b.SetBytes(hitFileSize)
			b.ReportAllocs()
			for b.Loop() {
				read()
			}
		})
	}
}

// BenchmarkDcacheHit times a local hit, copy and view.
func BenchmarkDcacheHit(b *testing.B) { benchHit(b, false) }

// BenchmarkDcacheHitShared times a local hit through a SharedCache — the
// (dataset, chunk)-keyed store every job of the multi-job serving plane
// reads through. The dataset-qualified store keys are precomputed at
// Join, so a view allocates nothing here either.
func BenchmarkDcacheHitShared(b *testing.B) { benchHit(b, true) }

// BenchmarkDcacheHitParallel drives local hits from GOMAXPROCS
// goroutines — the convoy case the sharded store exists for: concurrent
// epoch readers on one node must not serialise behind a single store
// lock.
func BenchmarkDcacheHitParallel(b *testing.B) {
	p, names := benchPeer(b, hitFiles, hitFileSize)
	b.SetBytes(hitFileSize)
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

// peerSweep returns the remote half of a chunk-wise epoch: rank 0 of a
// 2-master task reads, in plan order, every file the other master owns,
// one sample per call, over the same 1 MiB chunks of 4 KiB files as the
// hit benchmarks. The remote chunks outnumber the pulled buffer, so every
// pass pulls every chunk again — the steady state of an epoch reader, not
// a warm buffer — and one pass comes first, so dialing the master is not
// in the figures. served counts the RPCs the remote master answered.
func peerSweep(tb testing.TB) (read func(), served func() uint64) {
	const nFiles = 10240 // 40 chunks of 256 files, 20 remote
	peers, _ := benchTask(tb, nFiles, hitFileSize, 1<<20, []string{"node0", "node1"}, nil)
	p, remote := peers[0], peers[1]
	var paths []string
	for _, fi := range shuffle.ChunkWisePlan(p.snap, 1, 4).Files {
		if p.ownerOf(p.snap.FileMetaAt(int(fi)).ChunkIdx) != p.selfIdx {
			paths = append(paths, p.snap.FileName(int(fi)))
		}
	}
	read = hitRead(tb, p, paths, true)
	for range len(paths) - 2 { // and testkit.Sites' two warm calls end the pass
		read()
	}
	return read, remote.srv.Stats.Requests.Load
}

// BenchmarkDcachePeerSweep times peerSweep. rpcs/op is what the remote
// master served per sample: two per chunk, a first-touch cache.get and
// one cache.getChunk — 0.008 per sample over a whole pass.
func BenchmarkDcachePeerSweep(b *testing.B) {
	read, served := peerSweep(b)
	b.SetBytes(hitFileSize)
	b.ReportAllocs()
	before := served()
	for b.Loop() {
		read()
	}
	b.ReportMetric(float64(served()-before)/float64(b.N), "rpcs/op")
}

// peerSweepTable: 50 samples from the start of a pass, the first of a
// group whose two remote chunks are both pulled within them, each pull
// about 28 allocations with both ends in this process. A remote branch
// gone back to per-file calls is 1 RPC and 13 allocations per sample.
var peerSweepTable = testkit.Table{
	Other:  1.5,
	Allocs: 1.5,
	Bytes:  46000,
}

// TestPeerSweepAllocations holds 50 samples of peerSweep to
// peerSweepTable.
func TestPeerSweepAllocations(t *testing.T) {
	read, _ := peerSweep(t)
	testkit.Check(t, peerSweepTable, testkit.Sites(50, read))
}
