package dcache

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"diesel/internal/client"
	"diesel/internal/etcd"
	"diesel/internal/server"
)

// fakeClock is a manually stepped nanosecond clock for grace-window tests.
type fakeClock struct{ ns int64 }

func (c *fakeClock) now() int64 { return c.ns }

// putTestChunk inserts a payload the way a peer's chunk load does, with
// the shared cache's cold-dataset eviction preference.
func putTestChunk(t *testing.T, sc *SharedCache, dataset, id string, size int) {
	t.Helper()
	key := dataset + "\x00" + id
	if _, cached := sc.store.Put(key, make([]byte, size), sc.store.Gen(key), sc.cold); !cached {
		t.Fatalf("chunk %s/%s not cached", dataset, id)
	}
}

// refcount reports the dataset's live references: in-process peers plus
// whatever the RefSource (job registry) says.
func (s *SharedCache) refcount(dataset string) int {
	s.mu.Lock()
	n := s.local[dataset]
	src := s.src
	s.mu.Unlock()
	if src != nil {
		n += src.Refcount(dataset)
	}
	return n
}

// countingRefs is a RefSource that reports no jobs and counts how often
// it is asked.
type countingRefs struct{ calls atomic.Int64 }

func (c *countingRefs) Refcount(string) int { c.calls.Add(1); return 0 }

// TestColdAsksRefSourceOnlyWithoutLocalPeer pins the eviction
// preference's cost: while a peer of the dataset is joined in this
// process, an eviction pass decides "live" without asking the RefSource
// (a job registry List and a decode of every job record); once the last
// peer leaves, the RefSource is asked again.
func TestColdAsksRefSourceOnlyWithoutLocalPeer(t *testing.T) {
	refs := &countingRefs{}
	sc := NewSharedCache(10000, time.Minute, nil) // fits 2 of 4096-byte chunks
	sc.SetRefSource(refs)
	sc.acquire("ds") // what Join does for each peer of the dataset
	for i := range 4 {
		putTestChunk(t, sc, "ds", fmt.Sprintf("c%d", i), 4096)
	}
	if got := sc.Chunks(); got != 2 {
		t.Fatalf("Chunks = %d, want 2 (the puts must have evicted)", got)
	}
	if n := refs.calls.Load(); n != 0 {
		t.Fatalf("eviction asked the RefSource %d times while a peer was joined", n)
	}
	sc.release("ds")
	putTestChunk(t, sc, "ds", "c4", 4096)
	if refs.calls.Load() == 0 {
		t.Fatal("eviction without a joined peer never asked the RefSource")
	}
}

// TestSharedCacheRefcountGrace walks a dataset through the refcount
// lifecycle: pinned while acquired, eviction-neutral through the grace
// window after the last release, eviction-preferred only once the grace
// lapses (what the preference does under capacity pressure is
// TestSharedCacheEvictionPrefersCold).
func TestSharedCacheRefcountGrace(t *testing.T) {
	clk := &fakeClock{ns: 1}
	const grace = 10 * time.Second
	sc := NewSharedCache(0, grace, clk.now)

	sc.acquire("ds")
	sc.acquire("ds")
	putTestChunk(t, sc, "ds", "c1", 4096)
	putTestChunk(t, sc, "ds", "c2", 4096)
	if got := sc.Chunks(); got != 2 {
		t.Fatalf("Chunks = %d, want 2", got)
	}

	if sc.cold("ds") {
		t.Fatal("acquired dataset reported cold")
	}
	sc.release("ds")
	if got := sc.refcount("ds"); got != 1 {
		t.Fatalf("Refcount = %d, want 1", got)
	}
	sc.release("ds")
	if got := sc.refcount("ds"); got != 0 {
		t.Fatalf("Refcount = %d, want 0", got)
	}

	// Zero refcount but inside the grace window: still not cold, so
	// eviction does not prefer the chunks (a restarting job should find
	// its working set).
	clk.ns += (grace / 2).Nanoseconds()
	if sc.cold("ds") {
		t.Fatal("dataset cold inside grace window")
	}

	// Grace lapsed: cold.
	clk.ns += grace.Nanoseconds()
	if !sc.cold("ds") {
		t.Fatal("dataset not cold after grace")
	}

	// Re-acquiring resurrects the dataset's liveness.
	sc.acquire("ds")
	if sc.cold("ds") {
		t.Fatal("re-acquired dataset reported cold")
	}
}

// TestSharedCacheEvictionPrefersCold pins one dataset via a live
// refcount and lets another go cold: under capacity pressure the cold
// dataset's chunks must go first even when they are more recently used.
func TestSharedCacheEvictionPrefersCold(t *testing.T) {
	clk := &fakeClock{ns: 1}
	const grace = time.Second
	sc := NewSharedCache(10000, grace, clk.now) // fits 2 of the 3 chunks

	sc.acquire("live")
	// "cold" was never acquired; its grace clock starts at first
	// observation, so step past it before applying pressure.
	putTestChunk(t, sc, "cold", "c1", 4096)
	putTestChunk(t, sc, "live", "c2", 4096)
	if sc.cold("cold") {
		t.Fatal("first observation at zero refcount must start the grace clock, not evict")
	}
	clk.ns += (2 * grace).Nanoseconds()

	// Touch the cold chunk so it is the most recently used — LRU alone
	// would evict a live chunk; the preference must override that.
	if _, ok := sc.store.Get("cold\x00c1"); !ok {
		t.Fatal("cold chunk missing")
	}
	putTestChunk(t, sc, "live", "c3", 4096)
	if got := sc.Chunks(); got != 2 {
		t.Fatalf("%d chunks resident, want 2 after one eviction", got)
	}
	if _, ok := sc.store.Get("cold\x00c1"); ok {
		t.Fatal("cold dataset's chunk survived; a live chunk was evicted instead")
	}
}

// TestColdPreferenceAllocatesNothing: a chunk load's insert that evicts
// allocates its entry and LRU element, and nothing for the cold-dataset
// preference — Peer.cache hands the store a method value that does not
// escape, and the store asks it once per group from a memo on its own
// stack — so neither a bounded cache nor an unbounded one, which never
// asks, pays for it per chunk load.
func TestColdPreferenceAllocatesNothing(t *testing.T) {
	sc := NewSharedCache(2*4096, 0, nil) // every insert evicts one chunk
	sc.acquire("ds")
	p := &Peer{shared: sc, store: sc.store}
	keys := make([]string, 300)
	for i := range keys {
		keys[i] = fmt.Sprintf("ds\x00c%d", i)
	}
	payload := make([]byte, 4096)
	p.cache(keys[0], payload) // fill the cache
	p.cache(keys[1], payload)
	next := 2
	allocs := testing.AllocsPerRun(200, func() {
		p.cache(keys[next], payload)
		next++
	})
	if got := p.Stats.Evictions.Load(); got != uint64(next-2) {
		t.Fatalf("%d inserts evicted %d chunks, want one each", next-2, got)
	}
	if allocs > 2 {
		t.Errorf("an evicting insert allocates %.1f times, want 2 (entry and LRU element)", allocs)
	}
}

// TestSharedCacheJobRegistryRefSource wires a real job registry in as the
// refcount source: a registered job pins the dataset, lease expiry
// un-pins it, and the grace window then runs from the expiry observation
// — the full crashed-trainer path of the serving plane.
func TestSharedCacheJobRegistryRefSource(t *testing.T) {
	clk := &fakeClock{ns: 1_000_000_000}
	const ttl = 10 * time.Second
	const grace = 5 * time.Second
	reg := server.NewJobRegistry(etcd.InProcess{R: etcd.NewRegistry()}, ttl, clk.now)
	sc := NewSharedCache(0, grace, clk.now)
	sc.SetRefSource(reg)

	if err := reg.Register(server.JobInfo{ID: "trainer", Dataset: "ds"}); err != nil {
		t.Fatal(err)
	}
	putTestChunk(t, sc, "ds", "c1", 4096)
	if got := sc.refcount("ds"); got != 1 {
		t.Fatalf("Refcount = %d, want 1", got)
	}
	if sc.cold("ds") {
		t.Fatal("dataset with a registered job reported cold")
	}

	// The trainer crashes: heartbeats stop, the lease lapses.
	clk.ns += (ttl + time.Second).Nanoseconds()
	if got := sc.refcount("ds"); got != 0 {
		t.Fatalf("Refcount after lease expiry = %d, want 0", got)
	}
	// The expiry is discovered now; grace runs from this observation, so
	// the chunks survive the immediate aftermath of the crash.
	if sc.cold("ds") {
		t.Fatal("dataset cold immediately after lease expiry; grace must apply")
	}

	// If the trainer restarts within the grace, the working set is warm.
	if err := reg.Register(server.JobInfo{ID: "trainer", Dataset: "ds"}); err != nil {
		t.Fatal(err)
	}
	if sc.cold("ds") {
		t.Fatal("re-registered dataset reported cold")
	}
	if err := reg.Unregister("trainer"); err != nil {
		t.Fatal(err)
	}

	// No restart this time. The next observation discovers the zero
	// refcount (starting the grace clock); one a grace later finds it cold.
	clk.ns += (2 * grace).Nanoseconds()
	if sc.cold("ds") {
		t.Fatal("dataset cold at the observation that discovered the unregister")
	}
	clk.ns += (2 * grace).Nanoseconds()
	if !sc.cold("ds") {
		t.Fatal("dataset not cold a grace after its zero refcount was discovered")
	}
}

// TestSharedCacheAcrossTasks runs two single-client tasks (two "training
// jobs") over one dataset through one SharedCache: the second task's
// reads must be served entirely from chunks the first task loaded, with
// zero additional server fetches — the cache-hit amplification the
// multi-job serving plane exists for.
func TestSharedCacheAcrossTasks(t *testing.T) {
	core := server.NewLocalStack()
	rpc, err := server.NewRPC(core, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rpc.Close() })
	addrs := []string{rpc.Addr()}

	w, err := client.Connect(client.Options{Servers: addrs, Dataset: "ds", ChunkTarget: 4096})
	if err != nil {
		t.Fatal(err)
	}
	const nFiles, fileSize = 32, 1024
	names := make([]string, nFiles)
	for i := range nFiles {
		names[i] = fmt.Sprintf("img%04d.jpg", i)
		if err := w.DefaultDataset().Put(names[i], make([]byte, fileSize)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	shared := NewSharedCache(0, time.Minute, nil)
	reg := etcd.InProcess{R: etcd.NewRegistry()}
	newPeer := func(taskID string) *Peer {
		cl, err := client.Connect(client.Options{Servers: addrs, Dataset: "ds"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		if _, err := cl.DefaultDataset().DownloadSnapshot(); err != nil {
			t.Fatal(err)
		}
		p, err := Join(cl.DefaultDataset(), reg, Config{
			TaskID: taskID, NodeID: "n0", Rank: 0, TotalClients: 1,
			Policy: OnDemand, Shared: shared,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return p
	}

	p1 := newPeer("job-a")
	for _, name := range names {
		if _, err := p1.ReadFileContext(context.Background(), name); err != nil {
			t.Fatal(err)
		}
	}
	loads1 := p1.Stats.ChunkLoads.Load()
	if loads1 == 0 {
		t.Fatal("first job loaded no chunks")
	}
	if got := shared.refcount("ds"); got != 1 {
		t.Fatalf("Refcount with one task = %d, want 1", got)
	}

	p2 := newPeer("job-b")
	if got := shared.refcount("ds"); got != 2 {
		t.Fatalf("Refcount with two tasks = %d, want 2", got)
	}
	for _, name := range names {
		if _, err := p2.ReadFileContext(context.Background(), name); err != nil {
			t.Fatal(err)
		}
	}
	if loads2 := p2.Stats.ChunkLoads.Load(); loads2 != 0 {
		t.Fatalf("second job fetched %d chunks from servers; want 0 (all shared hits)", loads2)
	}
	if hits := p2.Stats.LocalHits.Load(); hits == 0 {
		t.Fatal("second job recorded no local hits")
	}

	// Closing a task releases its pin.
	p2.Close()
	if got := shared.refcount("ds"); got != 1 {
		t.Fatalf("Refcount after one close = %d, want 1", got)
	}
}
