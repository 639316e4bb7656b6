package dcache

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diesel/internal/epoch"
	"diesel/internal/shuffle"
	"diesel/internal/wire"
)

// watchdog bounds a wait that must not hang the suite when the code under
// test deadlocks; no test below passes by waiting it out.
const watchdog = 10 * time.Second

// pullFixture is a warm task (every master's partition loaded) over
// ~4 KiB chunks.
func pullFixture(t *testing.T, nFiles, fileSize int, layout []string, cfg Config) *faultFixture {
	t.Helper()
	cfg.Policy = Oneshot
	f := newFaultFixture(t, nFiles, fileSize, layout, cfg)
	for _, p := range f.peers {
		if err := p.LoadOwned(); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// chunksOf lists the chunks master index owner owns, as p sees them.
func chunksOf(p *Peer, owner int) []int {
	var out []int
	for ci := range p.snap.Chunks {
		if p.ownerOf(ci) == owner {
			out = append(out, ci)
		}
	}
	return out
}

// filesOf lists the paths of chunk ci.
func filesOf(p *Peer, ci int) []string {
	var out []string
	for _, fi := range p.snap.FilesInChunk(ci) {
		out = append(out, p.snap.FileName(int(fi)))
	}
	return out
}

// served wraps master m's handler for method so the test counts the calls
// it serves and, when before is set, runs before ahead of each.
func served(m *Peer, method string, before func()) *atomic.Int64 {
	h := m.handleCacheGet
	if method == methodCacheGetChunk {
		h = m.handleCacheGetChunk
	}
	var n atomic.Int64
	m.srv.HandleReply(method, func(ctx context.Context, payload []byte, r *wire.Reply) error {
		n.Add(1)
		if before != nil {
			before()
		}
		return h(ctx, payload, r)
	})
	return &n
}

// hang makes master m's cache.getChunk block until the returned release
// runs (the test's cleanup runs it at the latest); entered receives one
// value per call that arrived.
func hang(t *testing.T, m *Peer) (calls *atomic.Int64, entered <-chan struct{}, release func()) {
	in := make(chan struct{}, 64) // more than any test's readers: arrivals never block on the test
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	calls = served(m, methodCacheGetChunk, func() {
		in <- struct{}{}
		<-gate
	})
	return calls, in, release
}

func mustRead(t *testing.T, f *faultFixture, p *Peer, path string, view bool) []byte {
	t.Helper()
	read := p.ReadFileContext
	if view {
		read = p.ReadFileViewContext
	}
	b, err := read(context.Background(), path)
	if err != nil {
		t.Fatalf("read %q: %v", path, err)
	}
	if !bytes.Equal(b, f.files[path]) {
		t.Fatalf("read %q: content mismatch", path)
	}
	return b
}

// aliases reports whether view is a window into payload, not a copy.
func aliases(view, payload []byte) bool {
	if len(view) == 0 || len(payload) == 0 {
		return false
	}
	for i := range payload {
		if &payload[i] == &view[0] {
			return true
		}
	}
	return false
}

// link stands between a peer and its masters, so a test can kill and
// revive them as that peer sees it: kill severs every open connection and
// refuses new ones — a master process dying — and revive accepts dials
// again — its replacement coming up on the same address.
type link struct {
	mu    sync.Mutex
	down  bool
	conns []net.Conn
}

func (l *link) dial(addr string) (net.Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.down {
		return nil, errors.New("link: connection refused")
	}
	c, err := net.Dial("tcp", addr)
	if err == nil {
		l.conns = append(l.conns, c)
	}
	return c, err
}

func (l *link) kill() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.down = true
	for _, c := range l.conns {
		c.Close()
	}
	l.conns = nil
}

func (l *link) revive() {
	l.mu.Lock()
	l.down = false
	l.mu.Unlock()
}

// (a) A chunk-wise epoch through the pipelined reader costs at most two
// RPCs per remote chunk — a first-touch cache.get and one cache.getChunk —
// and delivers every sample byte for byte.
func TestPullChunkWiseEpoch(t *testing.T) {
	f := pullFixture(t, 600, 200, []string{"a", "b"}, Config{})
	p0, p1 := f.peers[0], f.peers[1]
	gets := served(p1, methodCacheGet, nil)
	pulls := served(p1, methodCacheGetChunk, nil)

	// Group 2 × window 2: at most six remote chunks are being read at any
	// time, within the sweep detector's window, so the bound is exact.
	plan := shuffle.ChunkWisePlan(p0.snap, 5, 2)
	r := epoch.NewReader(plan, p0.snap, epoch.NewCacheSource(p0, p0.snap, 2), epoch.WithWindow(2))
	defer r.Close()
	n := 0
	for {
		s, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(s.Data, f.files[s.Path]) {
			t.Fatalf("sample %q: content mismatch", s.Path)
		}
		n++
	}
	if n != len(f.files) {
		t.Fatalf("epoch delivered %d of %d samples", n, len(f.files))
	}

	remote := chunksOf(p0, p1.selfIdx)
	remoteFiles := 0
	for _, ci := range remote {
		remoteFiles += len(filesOf(p0, ci))
	}
	if got := gets.Load() + pulls.Load(); got > int64(2*len(remote)) {
		t.Errorf("%d RPCs (%d cache.get + %d cache.getChunk) for %d remote chunks, want <= 2 per chunk",
			got, gets.Load(), pulls.Load(), len(remote))
	}
	if pulls.Load() != int64(len(remote)) {
		t.Errorf("%d chunk pulls for %d remote chunks, want one each", pulls.Load(), len(remote))
	}
	if got := p0.Stats.PeerReads.Load(); got != uint64(remoteFiles) {
		t.Errorf("PeerReads = %d, want every remote file (%d): a view out of a pulled chunk is a peer read", got, remoteFiles)
	}
	if got := p0.Stats.ServerFallback.Load(); got != 0 {
		t.Errorf("ServerFallback = %d, want 0", got)
	}
	if got, want := p0.CachedChunks(), len(p0.OwnedChunks()); got != want {
		t.Errorf("CachedChunks = %d, want the owned partition (%d): pulled chunks are not the owned store", got, want)
	}
}

// (b) Random access does not trip the sweep detector — uniformly random
// remote reads over 256 remote chunks move barely more bytes than one
// cache.get per file would — while a file read again and again (a Zipf
// head) does get its chunk pulled.
func TestPullRandomAccessNotTaxed(t *testing.T) {
	f := pullFixture(t, 2800, 1000, []string{"a", "b"}, Config{})
	p0, p1 := f.peers[0], f.peers[1]
	pulls := served(p1, methodCacheGetChunk, nil)
	remote := chunksOf(p0, p1.selfIdx)
	if len(remote) < 256 {
		t.Fatalf("only %d remote chunks, want >= 256", len(remote))
	}
	var paths []string
	for _, ci := range remote {
		paths = append(paths, filesOf(p0, ci)...)
	}
	sort.Strings(paths)

	rng := rand.New(rand.NewSource(9))
	out0 := p1.srv.Stats.BytesOut.Load()
	var perFile uint64
	for range 4000 {
		path := paths[rng.Intn(len(paths))]
		perFile += uint64(len(mustRead(t, f, p0, path, true)))
	}
	moved := p1.srv.Stats.BytesOut.Load() - out0
	t.Logf("4000 random remote reads over %d chunks: %d pulls, %d bytes moved for %d file bytes (%.2fx)",
		len(remote), pulls.Load(), moved, perFile, float64(moved)/float64(perFile))
	if float64(moved) >= 1.5*float64(perFile) {
		t.Errorf("random access moved %d bytes, want < 1.5x the per-file path's %d", moved, perFile)
	}

	var hot int
	for _, ci := range remote {
		if _, ok := p0.pulled.Get(p0.storeKeys[ci]); !ok {
			hot = ci
			break
		}
	}
	before := pulls.Load()
	for range 3 {
		mustRead(t, f, p0, filesOf(p0, hot)[0], true)
	}
	if got := pulls.Load() - before; got != 1 {
		t.Errorf("three reads of one hot remote file caused %d chunk pulls, want 1", got)
	}
	if _, ok := p0.pulled.Get(p0.storeKeys[hot]); !ok {
		t.Error("hot file's chunk is not in the pulled buffer")
	}
}

// (c) Concurrent readers of one remote chunk coalesce into exactly one
// cache.getChunk.
func TestPullSingleFlight(t *testing.T) {
	f := pullFixture(t, 400, 200, []string{"a", "b"}, Config{})
	p0, p1 := f.peers[0], f.peers[1]
	gets := served(p1, methodCacheGet, nil)
	pulls := served(p1, methodCacheGetChunk, nil)
	files := filesOf(p0, chunksOf(p0, p1.selfIdx)[0])

	mustRead(t, f, p0, files[0], true) // first touch
	const readers = 16
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			path := files[1+i%(len(files)-1)]
			b, err := p0.ReadFileViewContext(context.Background(), path)
			if err != nil || !bytes.Equal(b, f.files[path]) {
				t.Errorf("read %q: err=%v", path, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if gets.Load() != 1 || pulls.Load() != 1 {
		t.Errorf("%d cache.get + %d cache.getChunk for %d readers of one chunk, want 1 + 1",
			gets.Load(), pulls.Load(), readers)
	}
	if got := p0.Stats.PeerReads.Load(); got != 1+readers {
		t.Errorf("PeerReads = %d, want %d", got, 1+readers)
	}
}

// (d) A master killed while a pull is in flight: every reader blocked on
// the pull still gets its bytes (through the per-file path, then the
// servers), the master is marked dead once, and the revival probe brings
// peer reads back.
func TestPullMasterKilledMidPull(t *testing.T) {
	f := pullFixture(t, 600, 200, []string{"a", "b"}, Config{
		deadAfter: 2, deadCooldown: time.Nanosecond, peerCallTimeout: watchdog,
	})
	p0, p1 := f.peers[0], f.peers[1]
	l := &link{}
	p0.dialMaster = l.dial
	pulls, entered, release := hang(t, p1)
	files := filesOf(p0, chunksOf(p0, p1.selfIdx)[0])

	mustRead(t, f, p0, files[0], false) // first touch, before the master hangs
	const readers = 8
	var wg sync.WaitGroup
	for i := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			path := files[1+i%(len(files)-1)]
			b, err := p0.ReadFileViewContext(context.Background(), path)
			if err != nil || !bytes.Equal(b, f.files[path]) {
				t.Errorf("read %q across the kill: err=%v", path, err)
			}
		}()
	}
	select {
	case <-entered: // one reader's pull is inside the master
	case <-time.After(watchdog):
		t.Fatal("no pull reached the master")
	}
	l.kill()
	wg.Wait()

	if got := pulls.Load(); got != 1 {
		t.Errorf("%d pulls reached the master, want 1", got)
	}
	if got := p0.Stats.MasterDeaths.Load(); got != 1 {
		t.Errorf("MasterDeaths = %d, want 1", got)
	}
	if p0.DeadMasters() != 1 {
		t.Errorf("DeadMasters = %d, want 1", p0.DeadMasters())
	}
	if got := p0.Stats.ServerFallback.Load(); got != readers {
		t.Errorf("ServerFallback = %d, want all %d readers", got, readers)
	}

	// The replacement comes up. Reads of the dead master's chunk go to the
	// servers until a probe (admitted at once: the cooldown is 1 ns, and
	// the pool's own redial backoff is what takes real time) gets through.
	release()
	l.revive()
	deadline := time.Now().Add(watchdog)
	for p0.DeadMasters() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("master never revived")
		}
		mustRead(t, f, p0, files[1], true)
	}
	peer, fallback := p0.Stats.PeerReads.Load(), p0.Stats.ServerFallback.Load()
	mustRead(t, f, p0, files[2], true)
	if p0.Stats.PeerReads.Load() != peer+1 || p0.Stats.ServerFallback.Load() != fallback {
		t.Error("read after revival was not served by the master")
	}
}

// A failed pull is one breaker outcome: with deadAfter 2, the pull and
// then the same read's per-file attempt are what it takes to mark the
// master dead, and the read still succeeds.
func TestPullFailureCountsOncePerPull(t *testing.T) {
	f := pullFixture(t, 400, 200, []string{"a", "b"}, Config{deadAfter: 2, deadCooldown: time.Hour})
	p0, p1 := f.peers[0], f.peers[1]
	l := &link{}
	p0.dialMaster = l.dial
	files := filesOf(p0, chunksOf(p0, p1.selfIdx)[0])

	mustRead(t, f, p0, files[0], true)
	l.kill()
	h := &p0.health[p1.selfIdx]
	payload, err := p0.pullChunk(context.Background(), p1.selfIdx, chunksOf(p0, p1.selfIdx)[0])
	if err == nil || payload != nil {
		t.Fatalf("pull from a killed master: err=%v", err)
	}
	if h.failures != 1 || h.dead() {
		t.Fatalf("after one failed pull: failures=%d dead=%v, want 1 and alive", h.failures, h.dead())
	}
	mustRead(t, f, p0, files[1], true) // pull fails (2): dead, then the servers answer
	if got := p0.Stats.MasterDeaths.Load(); got != 1 {
		t.Errorf("MasterDeaths = %d, want 1", got)
	}
	if got := p0.Stats.ServerFallback.Load(); got != 1 {
		t.Errorf("ServerFallback = %d, want 1", got)
	}
}

// A master that answers cache.getChunk with an error — one that predates
// the method, or one whose chunk load fails — degrades the sweep to
// per-file reads; no read fails and the breaker stays closed.
func TestPullRemoteErrorDegradesToPerFile(t *testing.T) {
	f := pullFixture(t, 400, 200, []string{"a", "b"}, Config{deadAfter: 1})
	p0, p1 := f.peers[0], f.peers[1]
	p1.srv.Handle(methodCacheGetChunk, func([]byte) ([]byte, error) {
		return nil, errors.New("wire: unknown method " + methodCacheGetChunk)
	})
	files := filesOf(p0, chunksOf(p0, p1.selfIdx)[0])
	for _, path := range files {
		mustRead(t, f, p0, path, true)
	}
	if got := p0.Stats.PeerReads.Load(); got != uint64(len(files)) {
		t.Errorf("PeerReads = %d, want %d", got, len(files))
	}
	if p0.Stats.ServerFallback.Load() != 0 || p0.DeadMasters() != 0 {
		t.Errorf("ServerFallback=%d DeadMasters=%d, want 0 and 0",
			p0.Stats.ServerFallback.Load(), p0.DeadMasters())
	}
}

// (e) A master that accepts a pull and never answers costs the read one
// peerCallTimeout, not a hang.
func TestPullHungMasterBounded(t *testing.T) {
	const timeout = 100 * time.Millisecond
	f := pullFixture(t, 400, 200, []string{"a", "b"}, Config{
		deadAfter: 1, deadCooldown: time.Hour, peerCallTimeout: timeout,
	})
	p0, p1 := f.peers[0], f.peers[1]
	hang(t, p1)
	files := filesOf(p0, chunksOf(p0, p1.selfIdx)[0])

	mustRead(t, f, p0, files[0], true)
	start := time.Now()
	mustRead(t, f, p0, files[1], true)
	if el := time.Since(start); el < timeout || el > 20*timeout {
		t.Errorf("read behind a hung pull took %v, want about peerCallTimeout (%v)", el, timeout)
	}
	if p0.Stats.MasterDeaths.Load() != 1 || p0.Stats.ServerFallback.Load() != 1 {
		t.Errorf("MasterDeaths=%d ServerFallback=%d, want 1 and 1",
			p0.Stats.MasterDeaths.Load(), p0.Stats.ServerFallback.Load())
	}
}

// (f) A view taken out of a pulled chunk is a window into it, and stays
// readable and unchanged after the buffer has evicted the chunk.
func TestPullViewSurvivesEviction(t *testing.T) {
	f := pullFixture(t, 1200, 200, []string{"a", "b"}, Config{})
	p0, p1 := f.peers[0], f.peers[1]
	remote := chunksOf(p0, p1.selfIdx)
	if len(remote) <= pulledChunks {
		t.Fatalf("%d remote chunks cannot overflow a %d-chunk buffer", len(remote), pulledChunks)
	}
	first := filesOf(p0, remote[0])
	mustRead(t, f, p0, first[0], true)
	view := mustRead(t, f, p0, first[1], true)
	payload, ok := p0.pulled.Get(p0.storeKeys[remote[0]])
	if !ok || !aliases(view, payload) {
		t.Fatalf("second read of a remote chunk: buffered=%v, want a view into the pulled payload", ok)
	}
	if owned := mustRead(t, f, p0, first[2], false); aliases(owned, payload) {
		t.Error("ReadFileContext returned a window into the pulled chunk, want an owned copy")
	}

	for _, ci := range remote[1:] {
		files := filesOf(p0, ci)
		mustRead(t, f, p0, files[0], true)
		mustRead(t, f, p0, files[1], true)
	}
	if _, ok := p0.pulled.Get(p0.storeKeys[remote[0]]); ok {
		t.Fatal("first chunk still buffered after every other remote chunk was pulled")
	}
	var largest int64
	for _, c := range p0.snap.Chunks {
		largest = max(largest, int64(c.Size)-int64(c.HeaderLen))
	}
	if got := p0.pulled.Bytes(); got > pulledChunks*largest {
		t.Errorf("pulled buffer holds %d bytes, want <= %d of the largest chunk (%d)", got, pulledChunks, largest)
	}
	if !bytes.Equal(view, f.files[first[1]]) {
		t.Error("view changed after its chunk was evicted from the pulled buffer")
	}
}

// (g) A master address that swallows connection attempts delays only the
// reads it owns: the dial runs outside the pool map's lock, a caller that
// gives up stops waiting for it, and a closed peer dials nothing.
func TestBlackHoledMasterDoesNotDelayOthers(t *testing.T) {
	f := pullFixture(t, 600, 200, []string{"a", "b", "c"}, Config{deadAfter: 5})
	p0, p1, p2 := f.peers[0], f.peers[1], f.peers[2]
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	p0.dialMaster = func(addr string) (net.Conn, error) {
		if addr != p2.Addr() {
			return net.Dial("tcp", addr)
		}
		entered <- struct{}{}
		<-release
		return nil, errors.New("black hole: i/o timeout")
	}
	healthy := filesOf(p0, chunksOf(p0, p1.selfIdx)[0])[0]
	swallowed := filesOf(p0, chunksOf(p0, p2.selfIdx)[0])

	type result struct {
		b   []byte
		err error
	}
	read := func(ctx context.Context, path string) <-chan result {
		ch := make(chan result, 1)
		go func() {
			b, err := p0.ReadFileContext(ctx, path)
			ch <- result{b, err}
		}()
		return ch
	}
	await := func(what string, ch <-chan result) result {
		t.Helper()
		select {
		case r := <-ch:
			return r
		case <-time.After(watchdog):
			t.Fatalf("%s did not return while a dial was black-holed", what)
			return result{}
		}
	}

	stuck := read(context.Background(), swallowed[0])
	select {
	case <-entered:
	case <-time.After(watchdog):
		t.Fatal("the black-holed master was never dialed")
	}
	if r := await("a read owned by the healthy master", read(context.Background(), healthy)); r.err != nil || !bytes.Equal(r.b, f.files[healthy]) {
		t.Errorf("read owned by the healthy master: err=%v", r.err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	waiting := read(ctx, swallowed[1])
	cancel()
	if r := await("a cancelled read", waiting); !errors.Is(r.err, context.Canceled) {
		t.Errorf("cancelled read behind the black-holed dial: err=%v, want context.Canceled", r.err)
	}

	close(release)
	if r := await("the read behind the failed dial", stuck); r.err != nil || !bytes.Equal(r.b, f.files[swallowed[0]]) {
		t.Errorf("read behind the failed dial: err=%v, want the servers' bytes", r.err)
	}
	if got := p0.health[p2.selfIdx].failures; got != 1 {
		t.Errorf("breaker failures for the black-holed master = %d, want 1 (the failed dial)", got)
	}
	if got := p0.dialedMasters(); got != 1 {
		t.Errorf("DialedMasters = %d, want 1", got)
	}

	p0.Close()
	if _, err := p0.poolFor(context.Background(), p1.Addr()); !errors.Is(err, errPeerClosed) {
		t.Errorf("poolFor after Close: err=%v, want errPeerClosed", err)
	}
	if got := p0.dialedMasters(); got != 0 {
		t.Errorf("DialedMasters after Close = %d, want 0", got)
	}
}

// (h) A worker peer — not its node's master, so without a store of its
// own — pulls swept chunks and serves views out of them too, from its own
// node's master as from another's.
func TestPullWorkerPeer(t *testing.T) {
	f := pullFixture(t, 400, 200, []string{"a", "a", "b"}, Config{})
	w := f.peers[1]
	if w.IsMaster() {
		t.Fatal("rank 1 should be a worker")
	}
	var reads uint64
	for owner := range w.masters {
		ci := chunksOf(w, owner)[0]
		files := filesOf(w, ci)
		mustRead(t, f, w, files[0], true)
		view := mustRead(t, f, w, files[1], true)
		mustRead(t, f, w, files[2], false)
		reads += 3
		payload, ok := w.pulled.Get(w.storeKeys[ci])
		if !ok || !aliases(view, payload) {
			t.Errorf("master %d's chunk: buffered=%v, want a view into the pulled payload", owner, ok)
		}
	}
	if got := w.Stats.PeerReads.Load(); got != reads {
		t.Errorf("PeerReads = %d, want %d", got, reads)
	}
	if w.Stats.LocalHits.Load() != 0 || w.CachedChunks() != 0 || w.CachedBytes() != 0 {
		t.Errorf("worker reports an owned store: LocalHits=%d CachedChunks=%d CachedBytes=%d",
			w.Stats.LocalHits.Load(), w.CachedChunks(), w.CachedBytes())
	}
}
