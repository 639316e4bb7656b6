package dcache

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"diesel/internal/client"
	"diesel/internal/etcd"
	"diesel/internal/server"
	"diesel/internal/shuffle"
	"diesel/internal/testkit"
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

// chunkFiles groups name indices by their snapshot chunk, in chunk order
// and, within a chunk, in payload order.
func chunkFiles(t testing.TB, p *Peer, names []string) [][]int {
	t.Helper()
	files := make([][]int, len(p.snap.Chunks))
	for i, n := range names {
		m, err := p.snap.Stat(n)
		if err != nil {
			t.Fatal(err)
		}
		files[m.ChunkIdx] = append(files[m.ChunkIdx], i)
	}
	return files
}

// strided orders name indices round-robin across chunks — file 0 of every
// chunk, then file 1 of every chunk, … — so a chunk comes back only after
// every other chunk has been read once: random access, to sweepRing, as
// long as there are more chunks than sweepWindow.
func strided(t testing.TB, files [][]int) []int {
	t.Helper()
	if len(files) <= sweepWindow {
		t.Fatalf("%d chunks cannot stride past a %d-chunk sweep window", len(files), sweepWindow)
	}
	var order []int
	for r := 0; ; r++ {
		n := len(order)
		for _, f := range files {
			if r < len(f) {
				order = append(order, f[r])
			}
		}
		if len(order) == n {
			return order
		}
	}
}

// TestSpillServesEvictedChunks pins the two-level cache: with RAM far
// smaller than the dataset, a second epoch is served from the spill tier
// — not refetched from the servers — and every byte comes back right,
// whether the epoch reads at random (every spilled read a pread) or
// sweeps chunk by chunk (whole verified chunk loads).
func TestSpillServesEvictedChunks(t *testing.T) {
	const nFiles, fileSize, chunkTarget = 64, 4 << 10, 16 << 10
	for _, sweep := range []bool{false, true} {
		t.Run(map[bool]string{false: "random", true: "sweep"}[sweep], func(t *testing.T) {
			sc := spillCache(t, 2*chunkTarget, t.TempDir()) // RAM holds ~2 of ~16 chunks
			if _, err := sc.EnableSpill(t.TempDir(), 0); err == nil {
				t.Fatal("second EnableSpill succeeded")
			}
			p, names, contents, _ := spillPeer(t, nFiles, fileSize, chunkTarget, func(c *Config) {
				c.Shared = sc
			})
			inOrder := make([]int, len(names))
			for i := range inOrder {
				inOrder[i] = i
			}
			readAll := func(order []int) {
				t.Helper()
				for _, i := range order {
					b, err := p.ReadFileContext(context.Background(), names[i])
					if err != nil {
						t.Fatalf("read %s: %v", names[i], err)
					}
					if !bytes.Equal(b, contents[i]) {
						t.Fatalf("%s corrupt after spill round trip", names[i])
					}
				}
			}
			readAll(inOrder) // epoch 1: server loads + demotions
			loadsAfterFirst := p.Stats.ChunkLoads.Load()
			if loadsAfterFirst == 0 {
				t.Fatal("first epoch loaded nothing from the servers")
			}
			st := sc.SpillStats()
			if !st.Enabled || st.Demotions == 0 || st.Entries == 0 {
				t.Fatalf("nothing demoted: %+v", st)
			}
			order := strided(t, chunkFiles(t, p, names))
			if sweep {
				order = inOrder
			}
			readAll(order) // epoch 2: spill hits
			if got := p.Stats.ChunkLoads.Load(); got != loadsAfterFirst {
				t.Fatalf("second epoch refetched from servers: %d -> %d chunk loads", loadsAfterFirst, got)
			}
			st2 := sc.SpillStats()
			if st2.Hits == st.Hits {
				t.Fatalf("second epoch recorded no spill hits: %+v", st2)
			}
			if loads := st2.Promotions - st.Promotions; sweep != (loads > 0) {
				t.Fatalf("sweep=%v epoch loaded %d whole chunks from spill", sweep, loads)
			}
		})
	}
}

// spillAtCapacity is a master whose RAM is full: every chunk was loaded
// once through a cache with room for two, so RAM holds the last two and
// the spill tier the rest, and no read has touched sweepRing yet.
func spillAtCapacity(t testing.TB) (p *Peer, sc *SharedCache, dir string, names []string, contents [][]byte, files [][]int) {
	t.Helper()
	const nFiles, fileSize, chunkTarget = 64, 4 << 10, 16 << 10
	dir = t.TempDir()
	sc = spillCache(t, 2*chunkTarget, dir)
	p, names, contents, _ = spillPeer(t, nFiles, fileSize, chunkTarget, func(c *Config) { c.Shared = sc })
	if err := p.LoadOwned(); err != nil {
		t.Fatal(err)
	}
	files = chunkFiles(t, p, names)
	c0 := p.snap.Chunks[0] // the chunk the tests sweep
	if room := 2*chunkTarget - p.CachedBytes(); room >= int64(c0.Size-uint64(c0.HeaderLen)) {
		t.Fatalf("RAM not full: %d bytes of room", room)
	}
	if _, ok := sc.store.SpillSize(p.storeKeys[0]); !ok {
		t.Fatal("chunk 0 not spilled")
	}
	return p, sc, dir, names, contents, files
}

// readChunk reads every file of one chunk in payload order and checks
// its bytes.
func readChunk(t *testing.T, p *Peer, names []string, contents [][]byte, files []int) {
	t.Helper()
	for _, i := range files {
		b, err := p.ReadFileViewContext(context.Background(), names[i])
		if err != nil {
			t.Fatalf("read %s: %v", names[i], err)
		}
		if !bytes.Equal(b, contents[i]) {
			t.Fatalf("%s: wrong bytes", names[i])
		}
	}
}

// TestSpillSweepLeavesFullRAMAlone pins the sweep rule for spilled chunks
// at RAM capacity: reading every file of a spilled chunk costs one pread
// and one verified whole-chunk load, and evicts nothing — RAM keeps what
// it held. Reading one file each of more chunks than sweepWindow is
// random access: all preads, no whole load.
func TestSpillSweepLeavesFullRAMAlone(t *testing.T) {
	p, sc, _, names, contents, files := spillAtCapacity(t)
	st, evictions, cached := sc.SpillStats(), p.Stats.Evictions.Load(), p.CachedChunks()
	readChunk(t, p, names, contents, files[0])
	st2 := sc.SpillStats()
	if loads := st2.Promotions - st.Promotions; loads != 1 {
		t.Fatalf("sweeping one spilled chunk loaded it whole %d times, want 1", loads)
	}
	if preads := st2.Hits - st.Hits - 1; preads > 1 {
		t.Fatalf("sweeping one spilled chunk took %d preads, want at most 1", preads)
	}
	if got := p.Stats.Evictions.Load(); got != evictions {
		t.Fatalf("spill reads evicted %d chunks from a full RAM", got-evictions)
	}
	if got := p.CachedChunks(); got != cached {
		t.Fatalf("CachedChunks %d -> %d", cached, got)
	}

	// One file each of the next 9+ spilled chunks: random access.
	st = st2
	reads := 0
	for ci := 1; ci < len(files)-2; ci++ {
		i := files[ci][len(files[ci])-1]
		b, err := p.ReadFileContext(context.Background(), names[i])
		if err != nil || !bytes.Equal(b, contents[i]) {
			t.Fatalf("read %s: %v", names[i], err)
		}
		reads++
	}
	if reads <= sweepWindow {
		t.Fatalf("only %d spilled chunks to read, want more than %d", reads, sweepWindow)
	}
	st2 = sc.SpillStats()
	if loads := st2.Promotions - st.Promotions; loads != 0 {
		t.Fatalf("random reads loaded %d whole chunks", loads)
	}
	if preads := st2.Hits - st.Hits; preads != uint64(reads) {
		t.Fatalf("%d random reads took %d preads", reads, preads)
	}
	if got := p.Stats.Evictions.Load(); got != evictions {
		t.Fatalf("random spill reads evicted %d chunks", got-evictions)
	}
}

// TestSpillConcurrentSweeps runs four readers over every chunk of a
// master whose RAM is full, as the parallel fetch workers of two epoch
// readers do: whole loads race each other, preads and the pulled buffer,
// every byte must come back right, RAM still evicts nothing, and the
// pulled buffer holds no more than the RAM budget.
func TestSpillConcurrentSweeps(t *testing.T) {
	p, sc, _, names, contents, files := spillAtCapacity(t)
	evictions := p.Stats.Evictions.Load()
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range files {
				for _, i := range files[(k+w)%len(files)] {
					b, err := p.ReadFileViewContext(context.Background(), names[i])
					if err != nil || !bytes.Equal(b, contents[i]) {
						t.Errorf("reader %d, %s: err %v, equal %v", w, names[i], err, bytes.Equal(b, contents[i]))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := p.Stats.Evictions.Load(); got != evictions {
		t.Fatalf("concurrent sweeps evicted %d chunks from a full RAM", got-evictions)
	}
	if got, budget := p.pulled.Bytes(), sc.store.Capacity(); got > budget {
		t.Fatalf("pulled buffer holds %d bytes beside a %d-byte RAM budget", got, budget)
	}
}

// TestSpillSweepRefillsFreeRAM: a swept spilled chunk goes back into RAM
// while RAM has room — after DropAll, which also empties the pulled
// buffer, so the chunk a sweep had loaded there is loaded again.
func TestSpillSweepRefillsFreeRAM(t *testing.T) {
	p, sc, _, names, contents, files := spillAtCapacity(t)
	readChunk(t, p, names, contents, files[0]) // full RAM: into the pulled buffer
	promotions := sc.SpillStats().Promotions
	p.DropAll()
	if p.CachedChunks() != 0 {
		t.Fatalf("DropAll left %d chunks in RAM", p.CachedChunks())
	}
	readChunk(t, p, names, contents, files[0])
	if got := sc.SpillStats().Promotions; got != promotions+1 {
		t.Fatalf("sweep after DropAll: %d whole loads, want 1 (the pulled buffer must be empty)", got-promotions)
	}
	if got := p.CachedChunks(); got != 1 {
		t.Fatalf("swept chunk with free RAM: CachedChunks = %d, want 1", got)
	}
	if p.Stats.ChunkLoads.Load() != uint64(len(files)) {
		t.Fatalf("refill went to the servers: %d chunk loads", p.Stats.ChunkLoads.Load())
	}
}

// TestSpillSweepCorruptChunkFromServer flips one byte of a spilled chunk
// in its segment file. The sweep's whole-chunk load fails its checksum,
// which drops the spill entry, and the chunk comes from the server: every
// file reads the bytes that were written, none an unverified pread of the
// damaged one.
func TestSpillSweepCorruptChunkFromServer(t *testing.T) {
	p, sc, dir, names, contents, files := spillAtCapacity(t)
	victim := files[0][len(files[0])-1] // not the first file: that one is a pread
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.spill"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	flipped := false
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if off := bytes.Index(b, contents[victim]); off >= 0 {
			f, err := os.OpenFile(seg, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			_, err = f.WriteAt([]byte{b[off+100] ^ 0xFF}, int64(off+100))
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			flipped = true
		}
	}
	if !flipped {
		t.Fatal("victim file not found in any segment")
	}
	loads := p.Stats.ChunkLoads.Load()
	readChunk(t, p, names, contents, files[0])
	if got := p.Stats.ChunkLoads.Load(); got != loads+1 {
		t.Fatalf("corrupt chunk: %d server loads, want 1", got-loads)
	}
	if _, ok := sc.store.SpillSize(p.storeKeys[0]); ok {
		t.Fatal("corrupt spill entry still indexed")
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

// spillRead returns a spill-hit read: RAM miss → spill index lookup →
// one pread of the file's exact range into a fresh buffer. The files are
// read strided across the chunks, so no chunk is revisited within
// sweepWindow and every read stays a pread. One cursor serves every read
// of the peer: restarting the order would revisit its first chunks
// within the sweep window.
func spillRead(tb testing.TB) (read func(tb testing.TB, view bool) func()) {
	const nFiles, fileSize, chunkTarget = 256, 4 << 10, 64 << 10
	sc := spillCache(tb, 0, tb.TempDir())
	p, names, _, _ := spillPeer(tb, nFiles, fileSize, chunkTarget, func(c *Config) { c.Shared = sc })
	if err := p.LoadOwned(); err != nil {
		tb.Fatal(err)
	}
	sc.DemoteAll()
	order, next := strided(tb, chunkFiles(tb, p, names)), 0
	return func(tb testing.TB, view bool) func() {
		read := p.ReadFileContext
		if view {
			read = p.ReadFileViewContext
		}
		return func() {
			buf, err := read(context.Background(), names[order[next%len(order)]])
			if err != nil {
				tb.Fatal(err)
			}
			if len(buf) != fileSize {
				tb.Fatalf("short read: %d", len(buf))
			}
			next++
		}
	}
}

// BenchmarkDcacheSpillRead times spillRead, view and copy.
func BenchmarkDcacheSpillRead(b *testing.B) {
	read := spillRead(b)
	for _, kind := range []string{"view", "copy"} {
		b.Run(kind, func(b *testing.B) {
			op := read(b, kind == "view")
			b.SetBytes(4 << 10)
			b.ReportAllocs()
			for b.Loop() {
				op()
			}
		})
	}
}

// spillReadTable: a spill hit, view or copy, allocates the pread buffer.
var spillReadTable = testkit.Table{
	Sites:  map[string]float64{"spill.(*Log).ReadAt ← tier.(*Store).ReadSpill": 1},
	Other:  0.1,
	Allocs: 1.1,
	Bytes:  4505,
}

// TestSpillReadAllocations holds a spill hit, view and copy, to
// spillReadTable.
func TestSpillReadAllocations(t *testing.T) {
	read := spillRead(t)
	for _, kind := range []string{"view", "copy"} {
		t.Run(kind, func(t *testing.T) {
			testkit.Check(t, spillReadTable, testkit.Sites(2000, read(t, kind == "view")))
		})
	}
}

// spillSweep returns one sample of a chunk-wise epoch over a master whose
// RAM is full, over 40 chunks of 16 files of which RAM holds 10 and the
// spill tier the rest. A spilled chunk costs one pread and one verified
// whole-chunk load into the pulled buffer, which the 30 spilled chunks
// outnumber, so every pass loads every spilled chunk again — the steady
// state, after one pass that comes first. It also returns the cache's
// whole-chunk spill loads and the peer's evictions so far.
func spillSweep(tb testing.TB) (read func(), loads, evictions func() uint64) {
	const nFiles, fileSize, chunkTarget = 640, 4 << 10, 64 << 10
	sc := spillCache(tb, 10*chunkTarget, tb.TempDir())
	p, _, _, _ := spillPeer(tb, nFiles, fileSize, chunkTarget, func(c *Config) { c.Shared = sc })
	if err := p.LoadOwned(); err != nil {
		tb.Fatal(err)
	}
	plan := shuffle.ChunkWisePlan(p.snap, 1, 4).Files
	i := 0
	read = func() {
		buf, err := p.ReadFileViewContext(context.Background(), p.snap.FileName(int(plan[i%len(plan)])))
		if err != nil {
			tb.Fatal(err)
		}
		if len(buf) != fileSize {
			tb.Fatalf("short read: %d", len(buf))
		}
		i++
	}
	for range len(plan) - 2 { // and testkit.Sites' two warm calls end the pass
		read()
	}
	return read, func() uint64 { return sc.SpillStats().Promotions }, p.Stats.Evictions.Load
}

// BenchmarkDcacheSpillSweep times spillSweep. loads/op is whole-chunk
// spill loads per sample (≈ 30 per 640-sample pass); evictions/op must
// stay 0: a sweep that promotes into the full LRU evicts a chunk per load.
func BenchmarkDcacheSpillSweep(b *testing.B) {
	read, loads, evictions := spillSweep(b)
	b.SetBytes(4 << 10)
	b.ReportAllocs()
	l0, e0 := loads(), evictions()
	for b.Loop() {
		read()
	}
	b.ReportMetric(float64(loads()-l0)/float64(b.N), "loads/op")
	b.ReportMetric(float64(evictions()-e0)/float64(b.N), "evictions/op")
}

// spillSweepTable: 50 samples from the start of a pass, the first of a
// group of four chunks, whose loads allocate no site's share of 0.25 per
// sample. A sweep gone back to a pread per file is at least 1 allocation
// per sample.
var spillSweepTable = testkit.Table{
	Other:  0.9,
	Allocs: 0.9,
	Bytes:  6150,
}

// TestSpillSweepAllocations holds 50 samples of spillSweep to
// spillSweepTable.
func TestSpillSweepAllocations(t *testing.T) {
	read, _, _ := spillSweep(t)
	testkit.Check(t, spillSweepTable, testkit.Sites(50, read))
}
