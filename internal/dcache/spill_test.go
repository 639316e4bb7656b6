package dcache

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"diesel/internal/client"
	"diesel/internal/etcd"
	"diesel/internal/server"
)

// spillPeer builds a single-node master over an in-memory server stack,
// returning the peer, the file names and their contents. cfg mutations
// run before Join (the spill tier comes with the Config.Shared a mutation
// sets); reJoin starts a fresh peer over the same (still written) dataset
// and registry-independent task — the restart path.
func spillPeer(t testing.TB, nFiles, fileSize, chunkTarget int, mut func(*Config)) (p *Peer, names []string, contents [][]byte, reJoin func(mut func(*Config)) *Peer) {
	t.Helper()
	core := server.NewLocalStack()
	rpc, err := server.NewRPC(core, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rpc.Close() })
	addrs := []string{rpc.Addr()}

	w, err := client.Connect(client.Options{Servers: addrs, Dataset: "ds", ChunkTarget: chunkTarget})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	names = make([]string, nFiles)
	contents = make([][]byte, nFiles)
	for i := range nFiles {
		data := make([]byte, fileSize)
		rng.Read(data)
		contents[i] = data
		names[i] = fmt.Sprintf("cls%02d/img%05d.jpg", i%5, i)
		if err := w.DefaultDataset().Put(names[i], data); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	task := 0
	join := func(mut func(*Config)) *Peer {
		cl, err := client.Connect(client.Options{Servers: addrs, Dataset: "ds"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		if _, err := cl.DefaultDataset().DownloadSnapshot(); err != nil {
			t.Fatal(err)
		}
		task++
		cfg := Config{
			TaskID: fmt.Sprintf("spill-%d", task), NodeID: "node0", Rank: 0,
			TotalClients: 1, Policy: OnDemand,
		}
		if mut != nil {
			mut(&cfg)
		}
		p, err := Join(cl.DefaultDataset(), etcd.InProcess{R: etcd.NewRegistry()}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return p
	}
	return join(mut), names, contents, join
}

// spillCache builds a cache bounded to capacity (0 = unbounded) with its
// spill tier in dir, closed when the test ends.
func spillCache(t testing.TB, capacity int64, dir string) *SharedCache {
	t.Helper()
	sc := NewSharedCache(capacity, 0, nil)
	if _, err := sc.EnableSpill(dir, 0); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sc.Close)
	return sc
}

// TestSpillServesEvictedChunks pins the two-level cache: with RAM far
// smaller than the dataset, a second epoch is served from the spill tier
// — not refetched from the servers — and every byte comes back right,
// whether reads stay on the pread path or promote chunks back to RAM.
func TestSpillServesEvictedChunks(t *testing.T) {
	const nFiles, fileSize, chunkTarget = 64, 4 << 10, 16 << 10
	for _, tc := range []struct {
		name         string
		promoteAfter int
	}{
		{"pread", -1},
		{"promote", 0}, // the default, spillPromoteAfter
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := spillCache(t, 2*chunkTarget, t.TempDir()) // RAM holds ~2 of ~16 chunks
			if _, err := sc.EnableSpill(t.TempDir(), 0); err == nil {
				t.Fatal("second EnableSpill succeeded")
			}
			p, names, contents, _ := spillPeer(t, nFiles, fileSize, chunkTarget, func(c *Config) {
				c.Shared = sc
				c.spillPromoteAfter = tc.promoteAfter
			})
			readAll := func() {
				t.Helper()
				for i, n := range names {
					b, err := p.ReadFileContext(context.Background(), n)
					if err != nil {
						t.Fatalf("read %s: %v", n, err)
					}
					if !bytes.Equal(b, contents[i]) {
						t.Fatalf("%s corrupt after spill round trip", n)
					}
				}
			}
			readAll() // epoch 1: server loads + demotions
			loadsAfterFirst := p.Stats.ChunkLoads.Load()
			if loadsAfterFirst == 0 {
				t.Fatal("first epoch loaded nothing from the servers")
			}
			st := sc.SpillStats()
			if !st.Enabled || st.Demotions == 0 || st.Entries == 0 {
				t.Fatalf("nothing demoted: %+v", st)
			}
			readAll() // epoch 2: spill hits
			if got := p.Stats.ChunkLoads.Load(); got != loadsAfterFirst {
				t.Fatalf("second epoch refetched from servers: %d -> %d chunk loads", loadsAfterFirst, got)
			}
			if st := sc.SpillStats(); st.Hits == 0 {
				t.Fatalf("second epoch recorded no spill hits: %+v", st)
			}
		})
	}
}

// TestSpillPromotionReturnsChunkToRAM checks the promote-on-reuse policy:
// after spillPromoteAfter spill reads of one chunk, the whole chunk is
// promoted back and further reads are RAM hits.
func TestSpillPromotionReturnsChunkToRAM(t *testing.T) {
	const nFiles, fileSize, chunkTarget = 16, 4 << 10, 64 << 10
	sc := spillCache(t, 0, t.TempDir())
	p, names, contents, _ := spillPeer(t, nFiles, fileSize, chunkTarget, func(c *Config) {
		c.Shared = sc
		c.spillPromoteAfter = 2
	})
	if err := p.LoadOwned(); err != nil {
		t.Fatal(err)
	}
	sc.DemoteAll()
	if p.CachedChunks() != 0 {
		t.Fatalf("DemoteAll left %d chunks in RAM", p.CachedChunks())
	}
	for i := range 3 { // reads 1..2 pread; read 2 crosses the threshold
		b, err := p.ReadFileContext(context.Background(), names[0])
		if err != nil || !bytes.Equal(b, contents[0]) {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	st := sc.SpillStats()
	if st.Promotions == 0 {
		t.Fatalf("no promotion after repeated spill reads: %+v", st)
	}
	if p.CachedChunks() == 0 {
		t.Fatal("promoted chunk not resident in RAM")
	}
	if loads := p.Stats.ChunkLoads.Load(); loads != uint64(p.CachedChunks())+0 && st.Misses != 0 {
		t.Fatalf("promotion went to the servers: loads=%d misses=%d", loads, st.Misses)
	}
}

// TestSpillRewarmAcrossRestart is the Fig. 11b recovery story at the
// cache layer: a restarted trainer (new cache and peer, same spill
// directory) serves its whole working set from local disk — zero server
// chunk loads — and views taken after the rewarm are correct.
func TestSpillRewarmAcrossRestart(t *testing.T) {
	const nFiles, fileSize, chunkTarget = 64, 4 << 10, 16 << 10
	dir := t.TempDir()
	sc := NewSharedCache(0, 0, nil)
	if _, err := sc.EnableSpill(dir, 0); err != nil {
		t.Fatal(err)
	}
	p, names, contents, reJoin := spillPeer(t, nFiles, fileSize, chunkTarget, func(c *Config) {
		c.Shared = sc
	})
	if err := p.LoadOwned(); err != nil {
		t.Fatal(err)
	}
	sc.DemoteAll() // graceful stop: push the whole working set to SSD
	wantChunks := sc.SpillStats().Entries
	if wantChunks == 0 {
		t.Fatal("nothing spilled before restart")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	sc.Close()

	sc2 := NewSharedCache(0, 0, nil)
	rec, err := sc2.EnableSpill(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sc2.Close)
	if rec.Entries != wantChunks || rec.Bytes == 0 {
		t.Fatalf("rewarmed %d chunks (%d bytes), want %d", rec.Entries, rec.Bytes, wantChunks)
	}
	if st := sc2.SpillStats(); st.RewarmEntries != rec.Entries || st.RewarmBytes != rec.Bytes {
		t.Fatalf("SpillStats rewarm %d / %d bytes, EnableSpill said %d / %d", st.RewarmEntries, st.RewarmBytes, rec.Entries, rec.Bytes)
	}
	p2 := reJoin(func(c *Config) { c.Shared = sc2 })
	for i, n := range names {
		b, err := p2.ReadFileContext(context.Background(), n)
		if err != nil || !bytes.Equal(b, contents[i]) {
			t.Fatalf("post-restart read %s: %v", n, err)
		}
	}
	if loads := p2.Stats.ChunkLoads.Load(); loads != 0 {
		t.Fatalf("restarted peer refetched %d chunks from the servers", loads)
	}
	if st := sc2.SpillStats(); st.Hits == 0 {
		t.Fatalf("restarted peer recorded no spill hits: %+v", st)
	}
}

// BenchmarkDcacheSpillRead measures the spill-hit fast path the
// BENCH_baseline.json alloc gate watches: RAM miss → spill index lookup →
// one pread of the file's exact range into a fresh buffer. Budget:
// ≤ 2 allocs/op (today: the result buffer, 1).
func BenchmarkDcacheSpillRead(b *testing.B) {
	const nFiles, fileSize, chunkTarget = 256, 4 << 10, 64 << 10
	sc := spillCache(b, 0, b.TempDir())
	p, names, _, _ := spillPeer(b, nFiles, fileSize, chunkTarget, func(c *Config) {
		c.Shared = sc
		c.spillPromoteAfter = -1 // hold every read on the pread path
	})
	if err := p.LoadOwned(); err != nil {
		b.Fatal(err)
	}
	sc.DemoteAll()
	ctx := context.Background()
	b.Run("view", func(b *testing.B) {
		b.SetBytes(fileSize)
		b.ReportAllocs()
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
		b.SetBytes(fileSize)
		b.ReportAllocs()
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
