package dcache

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"diesel/internal/client"
	"diesel/internal/etcd"
	"diesel/internal/server"
)

// fixture: one DIESEL server stack, a dataset, and a set of cache peers
// laid out across simulated nodes.
type fixture struct {
	addrs []string
	reg   etcd.InProcess
	files map[string][]byte
	peers []*Peer
	cls   []*client.Client
}

// newFixture writes nFiles files and joins peers: layout[i] is the node ID
// of rank i. The peers cache into shared, which the fixture closes; nil
// gives each master an unbounded cache of its own.
func newFixture(t *testing.T, nFiles, fileSize int, layout []string, policy Policy, shared *SharedCache) *fixture {
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
	rng := rand.New(rand.NewSource(21))
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

	f := &fixture{addrs: addrs, reg: etcd.InProcess{R: etcd.NewRegistry()}, files: files}
	if shared != nil {
		t.Cleanup(shared.Close)
	}

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
			p, err := Join(cl.DefaultDataset(), f.reg, Config{
				TaskID: "task1", NodeID: node, Rank: rank,
				TotalClients: len(layout), Policy: policy, Shared: shared,
			})
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

// TestPeerFileReadAllocations: a first-touch peer read is one cache.get to
// the owning master, whose answer lends the cached file to the connection
// writer instead of copying it into a fresh response. What the read
// allocates is the response its caller keeps, the request frame's handler
// goroutine and the decoded path: 3 in all. The per-call deadline is the
// connection's one reaper timer, which allocates nothing per call (a
// context.WithTimeout per call made it 8). The race detector, which drops
// pooled items at random, gets a margin.
func TestPeerFileReadAllocations(t *testing.T) {
	f := newFixture(t, 40, 2048, []string{"nodeA", "nodeB"}, OnDemand, nil)
	p := f.peers[0]
	var path string
	for name := range f.files {
		if m, _ := p.snap.Stat(name); p.ownerOf(m.ChunkIdx) != p.selfIdx {
			path = name
			break
		}
	}
	addr := p.masters[1-p.selfIdx].addr
	ctx := context.Background()
	read := func() {
		if b, err := p.readFromMaster(ctx, addr, path); err != nil || !bytes.Equal(b, f.files[path]) {
			t.Fatalf("peer read of %s: %d bytes, %v", path, len(b), err)
		}
	}
	read() // warm: the master loads the chunk, this peer dials it
	budget := 3.0
	if raceEnabled {
		budget += 2
	}
	if n := testing.AllocsPerRun(200, read); n > budget {
		t.Errorf("a first-touch peer read allocates %.1f times, budget %.0f", n, budget)
	}
}

func TestMasterElectionSmallestRankPerNode(t *testing.T) {
	// 2 nodes × 2 clients: ranks 0,1 on nodeA; 2,3 on nodeB.
	f := newFixture(t, 40, 128, []string{"nodeA", "nodeA", "nodeB", "nodeB"}, OnDemand, nil)
	if !f.peers[0].IsMaster() {
		t.Error("rank 0 should be master of nodeA")
	}
	if f.peers[1].IsMaster() {
		t.Error("rank 1 should not be master")
	}
	if !f.peers[2].IsMaster() {
		t.Error("rank 2 should be master of nodeB")
	}
	if f.peers[3].IsMaster() {
		t.Error("rank 3 should not be master")
	}
	for _, p := range f.peers {
		if len(p.masters) != 2 {
			t.Errorf("Masters() = %d, want 2", len(p.masters))
		}
	}
}

func TestPartitionCoversAllChunksOnce(t *testing.T) {
	f := newFixture(t, 60, 200, []string{"a", "b", "c"}, OnDemand, nil)
	total := len(f.peers[0].snap.Chunks)
	seen := make(map[int]int)
	for _, p := range f.peers {
		for _, ci := range p.OwnedChunks() {
			seen[ci]++
		}
	}
	if len(seen) != total {
		t.Fatalf("partition covers %d of %d chunks", len(seen), total)
	}
	for ci, n := range seen {
		if n != 1 {
			t.Fatalf("chunk %d owned by %d masters", ci, n)
		}
	}
}

func TestReadThroughCacheCorrectness(t *testing.T) {
	f := newFixture(t, 100, 256, []string{"nodeA", "nodeA", "nodeB"}, OnDemand, nil)
	for name, want := range f.files {
		for rank := range f.peers {
			got, err := f.cls[rank].DefaultDataset().Get(context.Background(), name)
			if err != nil {
				t.Fatalf("rank %d Get(%q): %v", rank, name, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("rank %d Get(%q): mismatch", rank, name)
			}
		}
	}
	// Cache must actually have been used.
	var local, peer, fallback uint64
	for _, p := range f.peers {
		local += p.Stats.LocalHits.Load()
		peer += p.Stats.PeerReads.Load()
		fallback += p.Stats.ServerFallback.Load()
	}
	if local == 0 || peer == 0 {
		t.Errorf("local=%d peer=%d; cache unused", local, peer)
	}
	if fallback != 0 {
		t.Errorf("healthy cluster fell back to server %d times", fallback)
	}
}

func TestOneshotPrefetch(t *testing.T) {
	f := newFixture(t, 60, 300, []string{"a", "b"}, Oneshot, nil)
	// Wait for background prefetch to finish.
	for _, p := range f.peers {
		if p.IsMaster() {
			if err := p.LoadOwned(); err != nil { // idempotent; synchronous
				t.Fatal(err)
			}
			if p.CachedChunks() != len(p.OwnedChunks()) {
				t.Errorf("master cached %d of %d owned chunks", p.CachedChunks(), len(p.OwnedChunks()))
			}
		}
	}
	// Reads are all hits now: no further chunk loads.
	loadsBefore := f.peers[0].Stats.ChunkLoads.Load() + f.peers[1].Stats.ChunkLoads.Load()
	for name := range f.files {
		if _, err := f.cls[0].DefaultDataset().Get(context.Background(), name); err != nil {
			t.Fatal(err)
		}
	}
	loadsAfter := f.peers[0].Stats.ChunkLoads.Load() + f.peers[1].Stats.ChunkLoads.Load()
	if loadsAfter != loadsBefore {
		t.Errorf("oneshot-prefetched cache still loaded %d chunks", loadsAfter-loadsBefore)
	}
}

func TestMasterFailureContained(t *testing.T) {
	f := newFixture(t, 80, 200, []string{"a", "b"}, Oneshot, nil)
	for _, p := range f.peers {
		if p.IsMaster() {
			p.LoadOwned()
		}
	}
	// Kill nodeB's master (rank 1).
	f.peers[1].Close()

	// Rank 0 can still read everything: chunks owned by the dead master
	// fall back to the DIESEL server.
	for name, want := range f.files {
		got, err := f.cls[0].DefaultDataset().Get(context.Background(), name)
		if err != nil {
			t.Fatalf("Get(%q) after master death: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Get(%q) after master death: mismatch", name)
		}
	}
	if f.peers[0].Stats.ServerFallback.Load() == 0 {
		t.Error("no server fallbacks recorded after master death")
	}
	if f.peers[0].Stats.LocalHits.Load() == 0 {
		t.Error("surviving master served nothing locally")
	}
}

func TestCacheRecoveryByChunkReload(t *testing.T) {
	f := newFixture(t, 60, 200, []string{"a"}, Oneshot, nil)
	p := f.peers[0]
	p.LoadOwned()
	chunksBefore := p.CachedChunks()
	if chunksBefore == 0 {
		t.Fatal("nothing cached")
	}
	p.DropAll() // simulated cache node restart
	if p.CachedChunks() != 0 {
		t.Fatal("DropAll left data")
	}
	if err := p.LoadOwned(); err != nil {
		t.Fatal(err)
	}
	if p.CachedChunks() != chunksBefore {
		t.Errorf("recovered %d chunks, want %d", p.CachedChunks(), chunksBefore)
	}
	// Recovery loads whole chunks, so loads == chunks, not files.
	if p.Stats.ChunkLoads.Load() != uint64(2*chunksBefore) {
		t.Errorf("ChunkLoads = %d, want %d", p.Stats.ChunkLoads.Load(), 2*chunksBefore)
	}
}

func TestCapacityEviction(t *testing.T) {
	// Capacity of ~2 chunks: reads must still be correct, with evictions.
	f := newFixture(t, 100, 256, []string{"a"}, OnDemand, NewSharedCache(2*4096+100, 0, nil))
	for name, want := range f.files {
		got, err := f.cls[0].DefaultDataset().Get(context.Background(), name)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%q) under memory pressure: %v", name, err)
		}
	}
	p := f.peers[0]
	if p.Stats.Evictions.Load() == 0 {
		t.Error("no evictions under capacity pressure")
	}
	if p.CachedBytes() > 2*4096+100 {
		t.Errorf("cache over capacity: %d", p.CachedBytes())
	}
}

func TestJoinRequiresSnapshot(t *testing.T) {
	core := server.NewLocalStack()
	rpc, _ := server.NewRPC(core, "127.0.0.1:0")
	defer rpc.Close()
	cl, err := client.Connect(client.Options{Servers: []string{rpc.Addr()}, Dataset: "ds"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	reg := etcd.InProcess{R: etcd.NewRegistry()}
	if _, err := Join(cl.DefaultDataset(), reg, Config{TaskID: "t", NodeID: "n", TotalClients: 1}); err == nil {
		t.Fatal("join without snapshot accepted")
	}
}

func TestJoinBarrierTimeout(t *testing.T) {
	core := server.NewLocalStack()
	rpc, _ := server.NewRPC(core, "127.0.0.1:0")
	defer rpc.Close()
	w, _ := client.Connect(client.Options{Servers: []string{rpc.Addr()}, Dataset: "ds"})
	w.DefaultDataset().Put("f", []byte("x"))
	w.Close()
	cl, _ := client.Connect(client.Options{Servers: []string{rpc.Addr()}, Dataset: "ds"})
	defer cl.Close()
	cl.DefaultDataset().DownloadSnapshot()
	reg := etcd.InProcess{R: etcd.NewRegistry()}
	_, err := Join(cl.DefaultDataset(), reg, Config{
		TaskID: "t", NodeID: "n", Rank: 0, TotalClients: 3,
		joinTimeout: 50e6, // 50ms
	})
	if err == nil {
		t.Fatal("barrier with missing peers did not time out")
	}
}

func TestConcurrentReadersThroughCache(t *testing.T) {
	f := newFixture(t, 60, 128, []string{"a", "a", "b", "b"}, OnDemand, nil)
	var names []string
	for n := range f.files {
		names = append(names, n)
	}
	var wg sync.WaitGroup
	for rank := range f.peers {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := range 100 {
				name := names[(rank*31+i)%len(names)]
				got, err := f.cls[rank].DefaultDataset().Get(context.Background(), name)
				if err != nil || !bytes.Equal(got, f.files[name]) {
					t.Errorf("rank %d concurrent Get(%q): %v", rank, name, err)
					return
				}
			}
		}(rank)
	}
	wg.Wait()
}

// TestTopologyPeersDialOnlyMasters verifies the p×(n−1) connection
// topology of Figure 7: after a full read sweep from every client, no
// peer has dialed more than the p masters, and total connections are far
// below the n×(n−1) full mesh.
func TestTopologyPeersDialOnlyMasters(t *testing.T) {
	layout := []string{"a", "a", "a", "b", "b", "b", "c", "c", "c"} // p=3, n=9
	f := newFixture(t, 90, 128, layout, OnDemand, nil)
	for name := range f.files {
		for rank := range f.peers {
			if _, err := f.cls[rank].DefaultDataset().Get(context.Background(), name); err != nil {
				t.Fatal(err)
			}
		}
	}
	p := 3
	total := 0
	for rank, peer := range f.peers {
		d := peer.dialedMasters()
		if d > p {
			t.Errorf("rank %d dialed %d targets, more than the %d masters", rank, d, p)
		}
		total += d
	}
	n := len(layout)
	if total > p*(n-1) {
		t.Errorf("total dialed = %d, exceeds p×(n−1) = %d", total, p*(n-1))
	}
	if total >= n*(n-1) {
		t.Errorf("topology degenerated to full mesh: %d connections", total)
	}
}

// TestJoinThroughNetworkedRegistry verifies the full deployment shape:
// peers register via a real etcd server over TCP rather than the
// in-process registry.
func TestJoinThroughNetworkedRegistry(t *testing.T) {
	core := server.NewLocalStack()
	rpc, err := server.NewRPC(core, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rpc.Close()
	w, err := client.Connect(client.Options{Servers: []string{rpc.Addr()}, Dataset: "ds", ChunkTarget: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 40 {
		w.DefaultDataset().Put(fmt.Sprintf("f%03d", i), bytes.Repeat([]byte{byte(i)}, 64))
	}
	w.Close()

	reg, err := etcd.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	var wg sync.WaitGroup
	peers := make([]*Peer, 2)
	errs := make([]error, 2)
	for rank := range 2 {
		cl, err := client.Connect(client.Options{Servers: []string{rpc.Addr()}, Dataset: "ds", Rank: rank})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if _, err := cl.DefaultDataset().DownloadSnapshot(); err != nil {
			t.Fatal(err)
		}
		rc, err := etcd.Dial(reg.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		wg.Add(1)
		go func(rank int, cl *client.Client, rc *etcd.Client) {
			defer wg.Done()
			p, err := Join(cl.DefaultDataset(), rc, Config{
				TaskID: "net", NodeID: fmt.Sprintf("n%d", rank), Rank: rank, TotalClients: 2,
			})
			peers[rank], errs[rank] = p, err
			if err == nil {
				cl.DefaultDataset().SetReader(p)
			}
		}(rank, cl, rc)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
		defer peers[rank].Close()
	}
	if !peers[0].IsMaster() || !peers[1].IsMaster() {
		t.Error("both single-client nodes should be masters")
	}
	// Read through the networked-registry cache.
	if b, err := peers[0].ReadFileContext(context.Background(), "f007"); err != nil || len(b) != 64 {
		t.Fatalf("read through networked-registry cache: %v", err)
	}
}
