package dcache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"diesel/internal/client"
	"diesel/internal/etcd"
	"diesel/internal/server"
	"diesel/internal/wire"
)

// TestOversizedChunkReadThrough verifies reads stay correct when every
// chunk is bigger than the cache: they are served read-through, the store
// never exceeds its capacity, and nothing is pointlessly evicted.
func TestOversizedChunkReadThrough(t *testing.T) {
	// ~4096-byte chunks against a 1000-byte cache.
	f := newFixture(t, 60, 256, []string{"a"}, OnDemand, NewSharedCache(1000, 0, nil))
	for name, want := range f.files {
		got, err := f.cls[0].DefaultDataset().Get(context.Background(), name)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%q) with oversized chunks: %v", name, err)
		}
	}
	p := f.peers[0]
	if got := p.CachedBytes(); got > 1000 {
		t.Errorf("cache over capacity: %d > 1000", got)
	}
	if p.CachedChunks() != 0 {
		t.Errorf("oversized chunks cached: %d", p.CachedChunks())
	}
}

// faultFixture is the standalone variant of fixture for tests that need
// the RPC server handle or custom breaker/timeout Config knobs.
type faultFixture struct {
	rpc   *server.RPCServer
	addrs []string
	files map[string][]byte
	peers []*Peer
	cls   []*client.Client
}

func newFaultFixture(t *testing.T, nFiles, fileSize int, layout []string, base Config) *faultFixture {
	t.Helper()
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
	rng := rand.New(rand.NewSource(33))
	files := make(map[string][]byte, nFiles)
	for i := range nFiles {
		name := fmt.Sprintf("cls%02d/img%04d.jpg", i%5, i)
		data := make([]byte, fileSize)
		rng.Read(data)
		files[name] = data
		if err := w.DefaultDataset().Put(name, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	f := &faultFixture{rpc: rpc, addrs: addrs, files: files}
	reg := etcd.InProcess{R: etcd.NewRegistry()}

	var wg sync.WaitGroup
	f.peers = make([]*Peer, len(layout))
	f.cls = make([]*client.Client, len(layout))
	errs := make([]error, len(layout))
	for rank, node := range layout {
		cl, err := client.Connect(client.Options{Servers: addrs, Dataset: "ds", Rank: rank})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.DefaultDataset().DownloadSnapshot(); err != nil {
			t.Fatal(err)
		}
		f.cls[rank] = cl
		t.Cleanup(func() { cl.Close() })
		wg.Add(1)
		go func(rank int, node string) {
			defer wg.Done()
			cfg := base
			cfg.TaskID, cfg.NodeID, cfg.Rank, cfg.TotalClients = "ftask", node, rank, len(layout)
			p, err := Join(cl.DefaultDataset(), reg, cfg)
			if err != nil {
				errs[rank] = err
				return
			}
			f.peers[rank] = p
			cl.DefaultDataset().SetReader(p)
		}(rank, node)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d join: %v", rank, err)
		}
	}
	t.Cleanup(func() {
		for _, p := range f.peers {
			if p != nil {
				p.Close()
			}
		}
	})
	return f
}

// TestCoalescedFetchSharesError verifies a failed chunk fetch is shared
// with every coalesced waiter: each gets the fetcher's error, instead of
// each waiter launching its own doomed server fetch (the thundering-herd
// regression).
func TestCoalescedFetchSharesError(t *testing.T) {
	f := newFaultFixture(t, 40, 256, []string{"a"}, Config{Policy: OnDemand})
	p := f.peers[0]
	ci := p.OwnedChunks()[0]

	// Make every chunk fetch fail remotely (the snapshot is already local,
	// so metadata lookups keep succeeding).
	del, err := client.Connect(client.Options{Servers: f.addrs, Dataset: "ds"})
	if err != nil {
		t.Fatal(err)
	}
	if err := del.DefaultDataset().DeleteDataset(); err != nil {
		t.Fatal(err)
	}
	del.Close()

	before := f.rpc.Requests()
	const waiters = 20
	errsCh := make([]error, waiters)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range waiters {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, errsCh[i] = p.loadChunk(context.Background(), ci)
		}(i)
	}
	close(start)
	wg.Wait()

	for i, err := range errsCh {
		if err == nil {
			t.Fatalf("waiter %d got a nil error from a failed coalesced fetch", i)
		}
	}
	// Coalescing bounds the damage: far fewer server fetches than waiters.
	if delta := f.rpc.Requests() - before; delta >= waiters {
		t.Errorf("failed fetch fanned out to %d server RPCs for %d waiters", delta, waiters)
	}
}

// TestPrefetchErrorRecorded verifies a failing background Oneshot
// prefetch is recorded and queryable rather than silently discarded.
func TestPrefetchErrorRecorded(t *testing.T) {
	core := server.NewLocalStack()
	rpc, err := server.NewRPC(core, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rpc.Close()
	addrs := []string{rpc.Addr()}

	w, err := client.Connect(client.Options{Servers: addrs, Dataset: "ds", ChunkTarget: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 30 {
		if err := w.DefaultDataset().Put(fmt.Sprintf("f%03d", i), bytes.Repeat([]byte{byte(i)}, 128)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	cl, err := client.Connect(client.Options{Servers: addrs, Dataset: "ds"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.DefaultDataset().DownloadSnapshot(); err != nil {
		t.Fatal(err)
	}

	// Delete the dataset between snapshot download and Join: the Oneshot
	// prefetch will find every chunk gone.
	del, err := client.Connect(client.Options{Servers: addrs, Dataset: "ds"})
	if err != nil {
		t.Fatal(err)
	}
	if err := del.DefaultDataset().DeleteDataset(); err != nil {
		t.Fatal(err)
	}
	del.Close()

	reg := etcd.InProcess{R: etcd.NewRegistry()}
	p, err := Join(cl.DefaultDataset(), reg, Config{TaskID: "pf", NodeID: "n", TotalClients: 1, Policy: Oneshot})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	deadline := time.Now().Add(5 * time.Second)
	for p.PrefetchErr() == nil {
		if time.Now().After(deadline) {
			t.Fatal("background prefetch failure never recorded")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if p.Stats.PrefetchErrors.Load() == 0 {
		t.Error("Stats.PrefetchErrors not incremented")
	}
}

// TestDeadMasterFallbackAndRevival is the tentpole acceptance test: kill
// one cache master mid-epoch — a full epoch of reads still completes with
// zero errors (server fallback takes over after the breaker opens), then a
// replacement master on the same address is re-probed after the cooldown
// and peer reads resume.
func TestDeadMasterFallbackAndRevival(t *testing.T) {
	// ≈ 60 chunks, 30 of them remote to p0: more than the pulled buffer
	// holds, so after the kill some remote reads must reach the master
	// (a read the buffer answers says nothing about the master's health).
	f := newFaultFixture(t, 1200, 200, []string{"a", "b"}, Config{
		Policy:          Oneshot,
		deadAfter:       2,
		deadCooldown:    250 * time.Millisecond,
		peerCallTimeout: time.Second,
	})
	p0, p1 := f.peers[0], f.peers[1]
	for _, p := range f.peers {
		if err := p.LoadOwned(); err != nil {
			t.Fatal(err)
		}
	}

	// Healthy epoch: peer reads work, nothing falls back.
	for name, want := range f.files {
		got, err := f.cls[0].DefaultDataset().Get(context.Background(), name)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("healthy Get(%q): %v", name, err)
		}
	}
	if p0.Stats.PeerReads.Load() == 0 {
		t.Fatal("no peer reads in healthy phase")
	}
	if p0.Stats.ServerFallback.Load() != 0 {
		t.Fatalf("healthy phase fell back %d times", p0.Stats.ServerFallback.Load())
	}

	// Kill node b's master mid-epoch.
	deadAddr := p1.Addr()
	p1.Close()

	// Full epoch with the master dead: zero errors, fallback serves the
	// dead master's chunks, local hits continue.
	fallbackGlobalBefore := familyValue("diesel_dcache_reads_total", "server")
	localBefore := p0.Stats.LocalHits.Load()
	for name, want := range f.files {
		got, err := f.cls[0].DefaultDataset().Get(context.Background(), name)
		if err != nil {
			t.Fatalf("Get(%q) with dead master: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Get(%q) with dead master: mismatch", name)
		}
	}
	if p0.Stats.ServerFallback.Load() == 0 {
		t.Error("no server fallbacks with a dead master")
	}
	if familyValue("diesel_dcache_reads_total", "server") == fallbackGlobalBefore {
		t.Error(`diesel_dcache_reads_total{source="server"} did not increase`)
	}
	if p0.Stats.LocalHits.Load() == localBefore {
		t.Error("local hits stopped with a dead master")
	}
	if p0.DeadMasters() != 1 {
		t.Errorf("DeadMasters = %d, want 1", p0.DeadMasters())
	}
	if p0.Stats.MasterDeaths.Load() == 0 {
		t.Error("MasterDeaths not recorded")
	}

	// A replacement master rejoins on the same address (rebinding can race
	// the old listener's close briefly).
	srv2 := wire.NewServer()
	srv2.Handle(methodCacheGet, func(payload []byte) ([]byte, error) {
		d := wire.NewDecoder(payload)
		path := d.String()
		if err := d.Err(); err != nil {
			return nil, err
		}
		b, ok := f.files[path]
		if !ok {
			return nil, errors.New("no such file")
		}
		e := wire.NewEncoder(len(b) + 8)
		e.Bytes32(b)
		return e.Bytes(), nil
	})
	var err error
	for i := 0; ; i++ {
		if _, err = srv2.Listen(deadAddr); err == nil {
			break
		}
		if i > 100 {
			t.Fatalf("could not rebind %s: %v", deadAddr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer srv2.Close()

	// A file owned by the dead master, to force the re-probe path.
	probePath := ""
	for name := range f.files {
		m, err := p0.snap.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		if p0.ownerOf(m.ChunkIdx) == p1.selfIdx {
			probePath = name
			break
		}
	}
	if probePath == "" {
		t.Fatal("no file owned by the dead master")
	}

	peerBefore := p0.Stats.PeerReads.Load()
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, err := f.cls[0].DefaultDataset().Get(context.Background(), probePath)
		if err != nil || !bytes.Equal(got, f.files[probePath]) {
			t.Fatalf("Get(%q) during rejoin: %v", probePath, err)
		}
		if p0.Stats.PeerReads.Load() > peerBefore && p0.DeadMasters() == 0 {
			return // topology restored
		}
		if time.Now().After(deadline) {
			t.Fatalf("master never revived: DeadMasters=%d peerReads delta=%d",
				p0.DeadMasters(), p0.Stats.PeerReads.Load()-peerBefore)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
