// Package dcache implements DIESEL's task-grained distributed cache
// (§4.2, Figure 7).
//
// Every I/O process of a DLT task owns a Peer. Peers register with the
// task's registry (lines labeled 1 in Figure 7); on each physical node the
// peer with the smallest rank becomes the node's master client. Only
// masters participate in dataset partitioning and serve cached data, so
// the connection count is p×(n−1) instead of n×(n−1) (lines labeled 2).
// File read requests from any peer go to the master that owns the file's
// chunk in one hop (lines labeled 3).
//
// The cache is chunk-granular: a master that misses pulls the whole chunk
// from a DIESEL server, which is why loading and recovery run at chunk
// bandwidth rather than file rate (Figure 11b). The remote branch is
// chunk-granular too once the access pattern is a sweep: the second read of
// a remote chunk pulls it whole from its master (pull.go), so a chunk-wise
// epoch costs about two RPCs per remote chunk, not one per file; a spilled
// local chunk is swept by the same rule, one verified whole-chunk read from
// local disk that leaves a full RAM LRU alone. Failures
// are contained to the task: a dead master only makes its peers fall back
// to reading from the DIESEL servers directly.
package dcache

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"diesel/internal/chunk"
	"diesel/internal/client"
	"diesel/internal/etcd"
	"diesel/internal/meta"
	"diesel/internal/obs"
	"diesel/internal/tier"
	"diesel/internal/tracing"
	"diesel/internal/wire"
)

// Policy selects when a master loads its owned chunks (§4.2 Cache
// Policies).
type Policy int

const (
	// OnDemand pulls a chunk from the server at the first miss on it.
	OnDemand Policy = iota
	// Oneshot pulls all owned chunks immediately after registration, so
	// first-epoch reads are already cache hits.
	Oneshot
)

// Config parameterises Join.
type Config struct {
	TaskID       string // DLT task identity; failure domain boundary
	NodeID       string // physical node identity (one master per node)
	Rank         int    // global rank of this I/O process
	TotalClients int    // barrier size: peers in the task
	Policy       Policy
	// Shared is the chunk cache this peer's master caches into, keyed by
	// (dataset, chunk): its capacity bounds the cached payload bytes, and
	// its EnableSpill adds the local-SSD spill tier. Two jobs training on
	// the same dataset through one SharedCache share one cached copy of
	// every chunk. Nil gives the peer an unbounded cache of its own, closed
	// with the peer.
	Shared *SharedCache

	// The cache's fixed settings, fields only so that this package's tests
	// can shrink them: Join fills each zero with the constant of its name.
	joinTimeout     time.Duration
	deadAfter       int
	deadCooldown    time.Duration
	peerCallTimeout time.Duration
}

// The cache's fixed settings.
const (
	// joinTimeout bounds the registration barrier.
	joinTimeout = 10 * time.Second
	// deadAfter marks a remote master dead after this many consecutive
	// transport failures; its chunks then route straight to server
	// fallback without paying a doomed RPC per read.
	deadAfter = 3
	// deadCooldown is how long a dead master is skipped before a single
	// read re-probes it; a successful probe restores the p×(n−1) peer
	// topology.
	deadCooldown = 5 * time.Second
	// peerCallTimeout bounds each RPC to a remote master (cache.get,
	// cache.getChunk) and the dial before it, so a hung or black-holed
	// master degrades to server fallback instead of stalling the training
	// loop.
	peerCallTimeout = 2 * time.Second
)

// Registrar is the registry interface Join needs; both *etcd.Registry
// (in-process) and *etcd.Client (networked) satisfy it.
type Registrar interface {
	Put(key string, value []byte) (uint64, error)
	List(prefix string) ([]etcd.Entry, error)
}

// Stats counts cache behaviour. The fields are obs counters (same
// Add/Load shape as atomic.Uint64); the process-wide diesel_dcache_*
// families are sums of them over every peer (see metrics.go).
type Stats struct {
	LocalHits      obs.Counter // served from this peer's own master cache
	PeerReads      obs.Counter // served by a remote master
	ChunkLoads     obs.Counter // chunks pulled from DIESEL servers
	BytesLoaded    obs.Counter
	ServerFallback obs.Counter // reads that bypassed the cache after a failure
	Evictions      obs.Counter
	MasterDeaths   obs.Counter // remote masters marked dead after repeated failures
	PrefetchErrors obs.Counter // background Oneshot prefetch failures
}

// Peer is one I/O process's handle on the task-grained cache. It
// implements client.Reader, so installing it on a libDIESEL context routes
// DL_get through the cache.
type Peer struct {
	cfg     Config
	ds      *client.Dataset
	dataset string
	snap    *meta.Snapshot

	// chunkIDs caches snap.Chunks[i].ID.String(): the snapshot is
	// immutable for the peer's lifetime and the hot read path needs the
	// string form on every chunk access. storeKeys carries the
	// dataset-qualified form the store is keyed by — precomputed so a
	// cache hit never concatenates (the hit path stays allocation-free).
	chunkIDs  []string
	storeKeys []string

	masters []masterInfo // sorted by node ID; partition targets
	selfIdx int          // index into masters if this peer is a master, else -1

	srv  *wire.Server // non-nil on masters
	addr string

	// pools holds the connection pool of each remote master dialed so far;
	// dials holds, per address, the dial in progress if there is one. The
	// dial itself runs outside pmu, so a black-holed address delays nobody's
	// lookup of another master's pool. pools is nil after Close.
	pmu   sync.Mutex
	pools map[string]*wire.Pool // master addr → pool
	dials map[string]*poolDial  // master addr → dial in progress
	// dialMaster opens one connection to a master, bounded by
	// peerCallTimeout; a field so tests can stand in a black hole.
	dialMaster func(addr string) (net.Conn, error)

	shared *SharedCache // Config.Shared, or the cache this peer owns
	store  *tier.Store  // shared.store on masters, nil on workers

	// pulled buffers the chunks a sweep is reading (pull.go): remote ones
	// pulled from their master, and spilled local ones RAM had no room
	// for. A few whole payloads, bounded in chunks, on masters and workers
	// alike. It is not the owned-partition store — CachedBytes,
	// CachedChunks and the diesel_tier_* series do not see it.
	pulled  *tier.Store
	sweep   sweepRing
	pullKey string // inflight key prefix of this peer's pulls

	// health tracks remote-master liveness, parallel to masters.
	health []masterHealth

	perrMu sync.Mutex
	perr   error // last background prefetch failure

	Stats  Stats
	closed atomic.Bool
}

// inflightLoad carries one in-progress chunk fetch and its outcome.
type inflightLoad struct {
	done    chan struct{}
	payload []byte
	err     error
}

// masterHealth is a tiny per-remote-master circuit breaker: deadAfter
// consecutive transport failures open it (reads skip the master entirely),
// and after deadCooldown a single half-open probe is let through; success
// closes it again, restoring peer reads.
type masterHealth struct {
	mu        sync.Mutex
	failures  int
	deadUntil time.Time // zero while alive
	probing   bool      // a half-open probe is in flight
}

// tryUse reports whether a read may attempt this master now. When the
// master is dead and its cooldown has expired, exactly one caller is
// admitted as the probe.
func (h *masterHealth) tryUse(now time.Time) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.deadUntil.IsZero() {
		return true
	}
	if now.Before(h.deadUntil) || h.probing {
		return false
	}
	h.probing = true
	return true
}

// succeeded records a successful RPC, reviving a dead master.
func (h *masterHealth) succeeded() (revived bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	revived = !h.deadUntil.IsZero()
	h.failures = 0
	h.deadUntil = time.Time{}
	h.probing = false
	return revived
}

// aborted clears an in-flight probe without recording an outcome — the
// caller gave up before the master could answer, so the read is neither a
// success nor a liveness failure.
func (h *masterHealth) aborted() {
	h.mu.Lock()
	h.probing = false
	h.mu.Unlock()
}

// failed records a transport failure, returning whether this one marked
// the master dead (an already-dead master just extends its cooldown).
func (h *masterHealth) failed(now time.Time, deadAfter int, cooldown time.Duration) (died bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.probing = false
	h.failures++
	if h.failures < deadAfter {
		return false
	}
	died = h.deadUntil.IsZero()
	h.deadUntil = now.Add(cooldown)
	return died
}

// dead reports whether the master is marked dead (it stays dead until a
// successful probe revives it, even after the cooldown expires).
func (h *masterHealth) dead() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return !h.deadUntil.IsZero()
}

const (
	methodCacheGet      = "cache.get"      // one file out of a master's cache
	methodCacheGetChunk = "cache.getChunk" // one whole chunk payload (pull.go)
)

// Join registers this process in the task, waits for all TotalClients
// peers, elects masters (smallest rank per node), partitions the dataset's
// chunks across masters, and — under the Oneshot policy — starts loading
// this master's partition in the background.
//
// The dataset handle must have a metadata snapshot loaded: the cache
// partitions the snapshot's chunk table.
func Join(ds *client.Dataset, reg Registrar, cfg Config) (*Peer, error) {
	snap := ds.Snapshot()
	if snap == nil {
		return nil, errors.New("dcache: dataset handle has no metadata snapshot loaded")
	}
	if cfg.TotalClients < 1 {
		return nil, errors.New("dcache: TotalClients must be >= 1")
	}
	if cfg.joinTimeout <= 0 {
		cfg.joinTimeout = joinTimeout
	}
	if cfg.deadAfter <= 0 {
		cfg.deadAfter = deadAfter
	}
	if cfg.deadCooldown <= 0 {
		cfg.deadCooldown = deadCooldown
	}
	if cfg.peerCallTimeout <= 0 {
		cfg.peerCallTimeout = peerCallTimeout
	}

	p := &Peer{
		cfg:     cfg,
		ds:      ds,
		dataset: ds.Name(),
		snap:    snap,
		selfIdx: -1,
		pools:   make(map[string]*wire.Pool),
		dials:   make(map[string]*poolDial),
		pullKey: fmt.Sprintf("pull\x00%s\x00%d\x00", cfg.TaskID, cfg.Rank),
	}
	p.dialMaster = func(addr string) (net.Conn, error) {
		return net.DialTimeout("tcp", addr, cfg.peerCallTimeout)
	}
	p.chunkIDs = make([]string, len(snap.Chunks))
	p.storeKeys = make([]string, len(snap.Chunks))
	var largest uint64 // payload bytes of the snapshot's largest chunk
	for i := range snap.Chunks {
		p.chunkIDs[i] = snap.Chunks[i].ID.String()
		p.storeKeys[i] = p.dataset + "\x00" + p.chunkIDs[i]
		if c := snap.Chunks[i]; c.Size > uint64(c.HeaderLen) {
			largest = max(largest, c.Size-uint64(c.HeaderLen))
		}
	}

	// Every peer listens before registering; non-masters close their
	// listener after the election (mastership is unknown until everyone
	// has registered).
	p.srv = wire.NewServer()
	addr, err := p.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p.addr = addr

	key := fmt.Sprintf("dcache/%s/clients/%08d", cfg.TaskID, cfg.Rank)
	val := cfg.NodeID + "|" + addr
	if _, err := reg.Put(key, []byte(val)); err != nil {
		p.srv.Close()
		return nil, fmt.Errorf("dcache: register: %w", err)
	}

	// Barrier: wait until all peers are registered.
	deadline := time.Now().Add(cfg.joinTimeout)
	var entries []etcd.Entry
	for {
		entries, err = reg.List(fmt.Sprintf("dcache/%s/clients/", cfg.TaskID))
		if err != nil {
			p.srv.Close()
			return nil, err
		}
		if len(entries) >= cfg.TotalClients {
			break
		}
		if time.Now().After(deadline) {
			p.srv.Close()
			return nil, fmt.Errorf("dcache: join barrier timed out with %d/%d peers", len(entries), cfg.TotalClients)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Election: per node, the registered client with the smallest rank.
	type peerRec struct {
		rank int
		node string
		addr string
	}
	minByNode := make(map[string]peerRec)
	for _, e := range entries {
		rankStr := e.Key[strings.LastIndexByte(e.Key, '/')+1:]
		rank, err := strconv.Atoi(rankStr)
		if err != nil {
			continue
		}
		node, maddr, ok := strings.Cut(string(e.Value), "|")
		if !ok {
			continue
		}
		cur, seen := minByNode[node]
		if !seen || rank < cur.rank {
			minByNode[node] = peerRec{rank: rank, node: node, addr: maddr}
		}
	}
	nodes := make([]string, 0, len(minByNode))
	for n := range minByNode {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for i, n := range nodes {
		rec := minByNode[n]
		p.masters = append(p.masters, masterInfo{node: n, rank: rec.rank, addr: rec.addr})
		if rec.node == cfg.NodeID && rec.rank == cfg.Rank {
			p.selfIdx = i
		}
	}

	p.health = make([]masterHealth, len(p.masters))

	p.shared = cfg.Shared
	if p.shared == nil {
		p.shared = NewSharedCache(0, 0, nil)
	}
	p.shared.acquire(p.dataset)

	// The pulled buffer holds no more than the cache's RAM budget (and
	// at least one chunk): spilled chunks a sweep reads whole wait there,
	// and they must not hold more of the dataset beside RAM than RAM does.
	pulledBytes := pulledChunks * int64(largest)
	if c := p.shared.store.Capacity(); c > 0 {
		pulledBytes = min(pulledBytes, max(c, int64(largest)))
	}
	p.pulled = tier.New(pulledBytes, func(string) string { return "" })

	if p.IsMaster() {
		p.store = p.shared.store
		p.srv.HandleReply(methodCacheGet, p.handleCacheGet)
		p.srv.HandleReply(methodCacheGetChunk, p.handleCacheGetChunk)
		if cfg.Policy == Oneshot {
			go func() {
				if err := p.LoadOwned(); err != nil {
					p.notePrefetchError(err)
				}
			}()
		}
	} else {
		p.srv.Close()
		p.srv = nil
	}
	trackPeer(p)
	return p, nil
}

type masterInfo struct {
	node string
	rank int
	addr string
}

// IsMaster reports whether this peer was elected its node's master client.
func (p *Peer) IsMaster() bool { return p.selfIdx >= 0 }

// Addr returns this peer's serving address (masters only).
func (p *Peer) Addr() string { return p.addr }

// ownerOf returns the index of the master owning snapshot chunk ci.
// Round-robin over the snapshot's chunk table is deterministic and
// balanced, and every peer computes it identically from the shared
// snapshot.
func (p *Peer) ownerOf(ci int) int { return ci % len(p.masters) }

// OwnedChunks returns the snapshot chunk indices this master owns.
func (p *Peer) OwnedChunks() []int {
	if !p.IsMaster() {
		return nil
	}
	var out []int
	for ci := range p.snap.Chunks {
		if p.ownerOf(ci) == p.selfIdx {
			out = append(out, ci)
		}
	}
	return out
}

// LoadOwned pulls every chunk this master owns from the DIESEL servers
// (the Oneshot policy's prefetch; also the recovery path after a cache
// restart). It is safe to call repeatedly; already-cached chunks are
// skipped.
func (p *Peer) LoadOwned() error {
	if !p.IsMaster() {
		return nil
	}
	for _, ci := range p.OwnedChunks() {
		if p.closed.Load() {
			return nil
		}
		if _, err := p.loadChunk(context.Background(), ci); err != nil {
			return err
		}
	}
	return nil
}

// loadChunk ensures chunk ci is cached locally, fetching it from a DIESEL
// server if needed, and returns its payload. Concurrent loads of the same
// chunk coalesce into a single server fetch whose result — success or
// failure — is shared with every waiter; a failed fetch therefore costs
// one RPC, not one per blocked reader.
func (p *Peer) loadChunk(ctx context.Context, ci int) ([]byte, error) {
	key := p.storeKeys[ci]
	if payload, ok := p.store.Get(key); ok {
		return payload, nil
	}
	return p.shared.inflight.do(ctx, key, func() ([]byte, error) {
		id := p.chunkIDs[ci]
		fctx := ctx
		sp := tracing.ChildOf(ctx, "dcache.loadChunk")
		if sp != nil {
			sp.SetAttr("chunk", id)
			fctx = tracing.ContextWith(ctx, sp)
		}
		defer sp.End()
		// The spill tier beats a server fetch: a chunk demoted there (or
		// left there by a previous incarnation of this trainer) comes back
		// checksum-verified at local-disk bandwidth. It returns to RAM only
		// into free room — a full LRU under a scan would evict the chunks
		// the reader needs next for one it has just consumed — and
		// otherwise waits in the pulled buffer while its sweep lasts.
		if payload, ok := p.store.LoadSpill(key); ok {
			sp.SetAttr("source", "spill")
			if !p.store.PutIfRoom(key, payload, p.store.Gen(key)) {
				p.pulled.Put(key, payload, p.pulled.Gen(key), nil)
			}
			return payload, nil
		}
		payload, err := p.fetchChunk(fctx, key, id)
		sp.SetError(err)
		return payload, err
	})
}

// fetchChunk pulls one chunk from a DIESEL server into the store. A chunk
// too large for the store's capacity is still returned (the read succeeds)
// but not cached.
// The fetcher's context governs the server RPC; coalesced waiters share
// its outcome, so a cancelled fetcher fails its waiters once and the next
// read starts a fresh fetch.
func (p *Peer) fetchChunk(ctx context.Context, key, id string) ([]byte, error) {
	blob, err := p.ds.GetChunk(ctx, id)
	if err != nil {
		return nil, fmt.Errorf("dcache: load chunk %s: %w", id, err)
	}
	// Only the payload is kept: file extraction needs nothing else (offsets
	// come from the metadata snapshot), and payload-only is exactly what
	// the spill tier stores, so demotion and promotion move no header bytes.
	payload, err := chunk.Verify(blob)
	if err != nil {
		return nil, fmt.Errorf("dcache: chunk %s corrupt: %w", id, err)
	}
	p.Stats.ChunkLoads.Add(1)
	p.Stats.BytesLoaded.Add(uint64(len(blob)))
	p.cache(key, payload)
	return payload, nil
}

// cache inserts a payload fetched from a server into the RAM store; one
// larger than the capacity is served read-through and not kept. The store
// never invalidates chunk keys (chunks are immutable), so the insert
// carries the key's current generation. Eviction prefers cold datasets.
func (p *Peer) cache(key string, payload []byte) {
	evicted, _ := p.store.Put(key, payload, p.store.Gen(key), p.shared.cold)
	p.Stats.Evictions.Add(evicted)
}

// notePrefetchError records a background Oneshot prefetch failure so it is
// observable instead of silently discarded.
func (p *Peer) notePrefetchError(err error) {
	p.perrMu.Lock()
	p.perr = err
	p.perrMu.Unlock()
	p.Stats.PrefetchErrors.Add(1)
}

// PrefetchErr returns the most recent background prefetch failure, or nil.
// A later successful LoadOwned does not clear it; callers who retry the
// prefetch synchronously get their error from LoadOwned itself.
func (p *Peer) PrefetchErr() error {
	p.perrMu.Lock()
	defer p.perrMu.Unlock()
	return p.perr
}

// handleCacheGet serves a file from this master's cache (loading the chunk
// on demand), for requests arriving from peers. The context carries the
// server-side trace span, so an on-demand chunk load triggered by a peer
// read shows up under the requesting peer's trace.
func (p *Peer) handleCacheGet(ctx context.Context, payload []byte, r *wire.Reply) error {
	d := wire.NewDecoder(payload)
	path := d.String()
	if err := d.Err(); err != nil {
		return err
	}
	m, err := p.snap.Stat(path)
	if err != nil {
		return err
	}
	// The answer is laid out as Encoder.Bytes32 would lay it out, with the
	// file lent: a view of a cached or pulled payload, or a spill pread,
	// all GC-owned and never pooled or written again, so it goes to the
	// wire from where it lies.
	b, err := p.readLocal(ctx, m, true)
	if err != nil {
		return err
	}
	r.Head.Uint32(uint32(len(b)))
	r.Lend(b, nil)
	return nil
}

// readLocal serves a file (already resolved against the snapshot) from
// this master's own cache. With view set the returned slice is a read-only
// window into the cached chunk; otherwise it is an owned copy.
//
// Tier order: RAM → pulled buffer → spill → chunk load. A spilled chunk
// is read the way a remote one is (pull.go): while sweepRing has not seen
// it, one pread of exactly the file's range into a fresh GC-owned buffer
// — owned, so it satisfies both the view and the copy contract without
// another allocation; once it says the chunk is being swept, one
// checksum-verified load of the whole chunk (loadChunk), whose later
// files are views. A chunk that fails verification then comes from the
// server, never from an unverified pread.
func (p *Peer) readLocal(ctx context.Context, m meta.FileMeta, view bool) ([]byte, error) {
	key := p.storeKeys[m.ChunkIdx]
	if payload, ok := p.store.Get(key); ok {
		return fileOf(payload, m, view)
	}
	if payload, ok := p.pulled.Get(key); ok {
		return fileOf(payload, m, view)
	}
	if !p.sweep.seen(m.ChunkIdx) {
		if b, ok := p.store.ReadSpill(key, int64(m.Offset), int64(m.Length)); ok {
			return b, nil
		}
	}
	payload, err := p.loadChunk(ctx, m.ChunkIdx)
	if err != nil {
		return nil, err
	}
	return fileOf(payload, m, view)
}

// ReadFileContext implements client.Reader: the read flow of Figure 4. The
// owning master is computed from the snapshot; local reads are direct,
// remote ones are one RPC hop — per file at first touch, per chunk once
// the chunk is being swept (see pull.go); on any failure the read falls
// back to the DIESEL servers so a dead cache node degrades throughput, not
// correctness.
//
// A remote master that keeps failing is marked dead (deadAfter)
// and its chunks route straight to server fallback without paying a
// doomed RPC per read; after deadCooldown one read re-probes it,
// and a successful probe restores the p×(n−1) peer topology.
//
// The context bounds the peer RPC, the chunk load it may trigger and the
// server fallback, so a cancelled epoch reader stops waiting within one
// call round trip.
func (p *Peer) ReadFileContext(ctx context.Context, path string) ([]byte, error) {
	return p.readFile(ctx, path, false)
}

// ReadFileViewContext is ReadFileContext minus the defensive copy on the
// local-hit path: when the file's chunk is cached on this peer, the
// returned slice is a read-only window into the cached chunk payload; the
// same holds for a remote or spilled chunk this peer has read whole.
// Views are GC-safe — chunk buffers are never pooled, so a view stays
// readable even after its chunk is evicted — but callers must not write
// through them and must copy anything they mutate. On the first-touch peer-master and
// server-fallback paths the returned bytes are an owned copy, so the
// caller-side contract is uniformly "treat as read-only". The epoch
// reader's CacheSource rides this to make a cache-hit epoch copy-free.
func (p *Peer) ReadFileViewContext(ctx context.Context, path string) ([]byte, error) {
	return p.readFile(ctx, path, true)
}

func (p *Peer) readFile(ctx context.Context, path string, view bool) (b []byte, err error) {
	sp := tracing.ChildOf(ctx, "dcache.read")
	if sp != nil {
		sp.SetAttr("path", path)
		ctx = tracing.ContextWith(ctx, sp)
		defer func() { sp.SetError(err); sp.End() }()
	}
	m, err := p.snap.Stat(path)
	if err != nil {
		return nil, err
	}
	owner := p.ownerOf(m.ChunkIdx)
	if owner == p.selfIdx {
		b, err := p.readLocal(ctx, m, view)
		if err == nil {
			p.Stats.LocalHits.Add(1)
			sp.SetAttr("branch", "local")
			return b, nil
		}
		if ctx.Err() != nil {
			return nil, err
		}
	} else {
		// Tier order on the remote branch: pulled buffer → first-touch
		// cache.get → whole-chunk cache.getChunk once the chunk is being
		// swept → server fallback. A master marked dead gets none of the
		// first three, buffered or not: its chunks go to the servers until
		// a probe revives it, exactly as before the buffer existed.
		h := &p.health[owner]
		if !h.dead() {
			if payload, ok := p.pulled.Get(p.storeKeys[m.ChunkIdx]); ok {
				p.peerServed(sp, "peer-chunk", owner)
				return fileOf(payload, m, view)
			}
		}
		admitted := h.tryUse(time.Now())
		if admitted && p.sweep.seen(m.ChunkIdx) {
			payload, err := p.pullChunk(ctx, owner, m.ChunkIdx)
			if err == nil {
				p.peerServed(sp, "peer-chunk", owner)
				return fileOf(payload, m, view)
			}
			if ctx.Err() != nil {
				return nil, err
			}
			// The pull recorded its one outcome on the breaker; this read
			// carries on per file if the breaker still admits it.
			admitted = h.tryUse(time.Now())
		}
		if admitted {
			b, err := p.readFromMaster(ctx, p.masters[owner].addr, path)
			p.noteMaster(ctx, owner, err)
			if err == nil {
				p.peerServed(sp, "peer-master", owner)
				return b, nil
			}
			if !wire.IsRemote(err) && ctx.Err() != nil {
				return nil, err
			}
		}
	}
	p.Stats.ServerFallback.Add(1)
	sp.SetAttr("branch", "server-fallback")
	return p.ds.GetDirect(ctx, path)
}

// peerServed counts one read answered by a remote master: branch
// "peer-master" for a first-touch per-file RPC, "peer-chunk" for a view
// out of a chunk pulled whole. Both are source="peer" — the answering tier
// is the remote master's cache either way.
func (p *Peer) peerServed(sp *tracing.Span, branch string, owner int) {
	p.Stats.PeerReads.Add(1)
	sp.SetAttr("branch", branch)
	sp.SetAttr("owner", strconv.Itoa(owner))
}

// noteMaster records one RPC outcome — a per-file read or a whole-chunk
// pull — on the owning master's breaker. A remote error means the master
// answered: an application failure, not a liveness signal. A caller that
// gave up says nothing about the master's health, so that only clears a
// probe flag. Anything else is a transport failure (a failed dial and a
// peerCallTimeout expiry included) and counts toward deadAfter.
func (p *Peer) noteMaster(ctx context.Context, owner int, err error) {
	h := &p.health[owner]
	switch {
	case err == nil || wire.IsRemote(err):
		if h.succeeded() {
			mMasterRevivals.Inc()
		}
	case ctx.Err() != nil:
		h.aborted()
	default:
		if h.failed(time.Now(), p.cfg.deadAfter, p.cfg.deadCooldown) {
			p.Stats.MasterDeaths.Add(1)
			obs.Publish("breaker-trip",
				"cache master marked dead after consecutive transport failures",
				"addr", p.masters[owner].addr, "owner", strconv.Itoa(owner))
		}
	}
}

// callMaster performs one RPC to a remote master, dialing lazily and
// pooling connections. It takes over the request encoder and releases it.
// The response payload is the caller's to keep: one GC-owned allocation of
// its exact size, never a pooled frame buffer.
func (p *Peer) callMaster(ctx context.Context, addr, method string, req *wire.Encoder) ([]byte, error) {
	defer req.Release()
	pool, err := p.poolFor(ctx, addr)
	if err != nil {
		return nil, err
	}
	return pool.CallContext(ctx, method, req.Bytes())
}

// readFromMaster fetches one file from a remote master. The file bytes
// that escape to the training loop are a window into the response payload,
// not a copy of it.
func (p *Peer) readFromMaster(ctx context.Context, addr, path string) ([]byte, error) {
	e := wire.AcquireEncoder(len(path) + 8)
	e.String(path)
	resp, err := p.callMaster(ctx, addr, methodCacheGet, e)
	if err != nil {
		return nil, err
	}
	d := wire.NewDecoder(resp)
	return d.Bytes32(), d.Err()
}

// poolDial is one master's connection pool being dialed; waiters share
// the dialer's result.
type poolDial struct {
	done chan struct{}
	pool *wire.Pool
	err  error
}

var errPeerClosed = errors.New("dcache: peer closed")

// poolFor returns the connection pool to a remote master, dialing it on
// first use. One dial per address runs at a time, outside pmu and in a
// goroutine of its own, so the caller waits no longer than its context
// and the dial no longer than peerCallTimeout. A failed dial is not
// remembered: the caller counts it against the master's breaker like any
// other transport failure, and the breaker decides when to try again.
func (p *Peer) poolFor(ctx context.Context, addr string) (*wire.Pool, error) {
	p.pmu.Lock()
	if p.pools == nil {
		p.pmu.Unlock()
		return nil, errPeerClosed
	}
	if pool, ok := p.pools[addr]; ok {
		p.pmu.Unlock()
		return pool, nil
	}
	d, dialing := p.dials[addr]
	if !dialing {
		d = &poolDial{done: make(chan struct{})}
		p.dials[addr] = d
		go p.dialPool(addr, d)
	}
	p.pmu.Unlock()
	select {
	case <-d.done:
		return d.pool, d.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// dialPool runs one poolFor dial to completion and publishes the result.
// It outlives a caller that gave up, but not peerCallTimeout by much; a
// pool that arrives after Close is closed on the spot.
func (p *Peer) dialPool(addr string, d *poolDial) {
	d.pool, d.err = wire.DialPool(addr, 2,
		wire.WithCallTimeout(p.cfg.peerCallTimeout), wire.WithDialer(p.dialMaster))
	p.pmu.Lock()
	delete(p.dials, addr)
	switch {
	case d.err != nil:
	case p.pools == nil:
		d.pool.Close()
		d.pool, d.err = nil, errPeerClosed
	default:
		p.pools[addr] = d.pool
	}
	p.pmu.Unlock()
	close(d.done)
}

// dialedMasters reports how many distinct remote masters this peer has
// opened connections to — at most the other masters for a master, all the
// masters for a worker, never the full peer count. This is the p×(n−1)
// topology claim of §4.2, observable to the package's tests.
func (p *Peer) dialedMasters() int {
	p.pmu.Lock()
	defer p.pmu.Unlock()
	return len(p.pools)
}

// DeadMasters reports how many remote masters this peer currently
// considers dead. Healthy topology is 0; the Figure 6 degraded phase shows
// here as a nonzero count until the masters rejoin and a probe revives
// them.
func (p *Peer) DeadMasters() int {
	n := 0
	for i := range p.health {
		if p.health[i].dead() {
			n++
		}
	}
	return n
}

// CachedBytes reports the payload bytes currently cached on this master.
func (p *Peer) CachedBytes() int64 {
	if p.store == nil {
		return 0
	}
	return p.store.Bytes()
}

// CachedChunks reports how many chunks this master holds.
func (p *Peer) CachedChunks() int {
	if p.store == nil {
		return 0
	}
	return p.store.Count()
}

// DropAll empties this master's cache and its pulled buffer (failure
// injection for recovery experiments).
func (p *Peer) DropAll() {
	if p.store != nil {
		p.store.Clear()
	}
	p.pulled.Clear()
}

// Close stops serving and closes peer connections. A closed master makes
// its peers fall back to the DIESEL servers — the contained failure mode.
func (p *Peer) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	untrackPeer(p)
	p.shared.release(p.dataset)
	if p.cfg.Shared == nil {
		p.shared.Close()
	}
	var first error
	if p.srv != nil {
		first = p.srv.Close()
	}
	p.pmu.Lock()
	for _, pool := range p.pools {
		pool.Close()
	}
	p.pools = nil // poolFor refuses from here on
	p.pmu.Unlock()
	return first
}

// fileOf extracts one file's bytes from a cached chunk payload: with view
// set a read-only window into it — no copy — otherwise an owned copy, the
// mutable-slice contract of ReadFileContext.
//
// Payloads are plain GC-owned slices — never pooled, never unmapped. That
// is the PR 6 ownership rule that keeps views valid across eviction,
// demotion and promotion: each of those only drops or creates
// *references*; the GC frees the bytes once the last view is gone.
func fileOf(payload []byte, m meta.FileMeta, view bool) ([]byte, error) {
	end := m.Offset + m.Length
	if end < m.Offset || end > uint64(len(payload)) {
		return nil, fmt.Errorf("dcache: file range [%d,%d) outside chunk payload %d",
			m.Offset, end, len(payload))
	}
	if view {
		return payload[m.Offset:end:end], nil
	}
	return append([]byte(nil), payload[m.Offset:end]...), nil
}
