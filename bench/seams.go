package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"diesel/internal/client"
	"diesel/internal/dcache"
	"diesel/internal/epoch"
	"diesel/internal/kvstore"
	"diesel/internal/objstore"
	"diesel/internal/shuffle"
)

// The seams are the interfaces the layers already take their neighbours
// through. Each wrapper delegates after one atomic load when recording is
// off, and keeps every optional fast-path interface of the value it wraps
// (objstore.PooledReader, the server's context-aware backend, the cache
// source's ViewReader), so interposing does not reroute the program.

type spanKind uint8

const (
	kNextStall spanKind = iota // consumer: Reader.Next crossing into a new group
	kReadGroup                 // epoch.Source
	kGetChunk                  // epoch.ChunkClient / client.Dataset
	kGetBatch
	kGetDirect
	kStat
	kDcacheRead // epoch.FileReader / ViewReader
	kKVGet      // server.Backend
	kKVMGet
	kKVMSet
	kKVOther
	kObjGet // objstore.Store as the server sees it
	kObjGetRange
	kObjPut
	kObjOther
	kSlowGet // objstore.Store below Tiered
	kSlowGetRange
	kSlowPut
	kSlowOther
	numKinds
)

var kindNames = [numKinds]string{
	"consumer.next_stall", "epoch.ReadGroup",
	"client.GetChunk", "client.GetBatch", "client.GetDirect", "client.Stat",
	"dcache.Read",
	"kvstore.Get", "kvstore.MGet", "kvstore.MSet", "kvstore.other",
	"objstore.Get", "objstore.GetRange", "objstore.Put", "objstore.other",
	"objstore.slow.Get", "objstore.slow.GetRange", "objstore.slow.Put", "objstore.slow.other",
}

// span is one recorded interval. Spans of one group fetch (the stall that
// waited for it, its ReadGroup, the chunk or file reads under it) share
// Req. The context does not cross the wire without spans inside the
// program, so server-side seams (kvstore, objstore) record roots.
type span struct {
	Kind   spanKind
	ID     uint32
	Parent uint32
	Req    uint64
	Start  int64 // ns since the recorder was made
	End    int64
}

// maxSpans bounds the trace kept in memory (≈ 40 B each); past it spans
// are counted as dropped and the per-layer figures come from the rest.
const (
	maxSpans   = 8 << 20
	recShards  = 16
	shardSpans = maxSpans / recShards
)

// recShard is one append buffer. Span IDs spread recordings over the
// shards, so the few goroutines of a run rarely meet on one lock.
type recShard struct {
	mu      sync.Mutex
	spans   []span
	dropped int
	_       [24]byte // keep neighbouring locks off one cache line
}

type recorder struct {
	on     atomic.Bool
	t0     time.Time
	nextID atomic.Uint32
	shards [recShards]recShard

	mgetKeys  atomic.Uint64 // keys asked for through MGet
	readBytes atomic.Uint64 // bytes the server-facing store seam returned
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

func (r *recorder) add(k spanKind, id, parent uint32, req uint64, start int64) {
	end := r.now()
	sh := &r.shards[id%recShards]
	sh.mu.Lock()
	if len(sh.spans) < shardSpans {
		sh.spans = append(sh.spans, span{Kind: k, ID: id, Parent: parent, Req: req, Start: start, End: end})
	} else {
		sh.dropped++
	}
	sh.mu.Unlock()
}

// reset drops what was recorded so far (the probe pass reads its own
// spans back per probe).
func (r *recorder) reset() {
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		sh.spans = sh.spans[:0]
		sh.dropped = 0
		sh.mu.Unlock()
	}
	r.mgetKeys.Store(0)
	r.readBytes.Store(0)
}

// snapshot returns the recorded spans in start order, and how many were
// dropped for want of room.
func (r *recorder) snapshot() (spans []span, dropped int) {
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		spans = append(spans, sh.spans...)
		dropped += sh.dropped
		sh.mu.Unlock()
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	return spans, dropped
}

type ctxKey struct{}

// spanRef is what a recorded span hands its callees through the context.
type spanRef struct {
	id  uint32
	req uint64
}

func refFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(ctxKey{}).(spanRef)
	return ref
}

func withRef(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, ctxKey{}, ref)
}

// --- epoch.Source ---

type sourceSeam struct {
	inner epoch.Source
	rec   *recorder
}

func (s *sourceSeam) ReadGroup(ctx context.Context, plan *shuffle.Plan, g int) ([][]byte, error) {
	if !s.rec.on.Load() {
		return s.inner.ReadGroup(ctx, plan, g)
	}
	parent := refFrom(ctx)
	me := spanRef{id: s.rec.nextID.Add(1), req: parent.req | uint64(g+1)}
	start := s.rec.now()
	out, err := s.inner.ReadGroup(withRef(ctx, me), plan, g)
	s.rec.add(kReadGroup, me.id, parent.id, me.req, start)
	return out, err
}

// --- epoch.ChunkClient and the reader/writer calls of mixed_rw ---

type clientSeam struct {
	ds  *client.Dataset
	rec *recorder
}

func (c *clientSeam) leaf(ctx context.Context, k spanKind, start int64) {
	p := refFrom(ctx)
	c.rec.add(k, c.rec.nextID.Add(1), p.id, p.req, start)
}

func (c *clientSeam) GetChunk(ctx context.Context, chunkID string) ([]byte, error) {
	if !c.rec.on.Load() {
		return c.ds.GetChunk(ctx, chunkID)
	}
	start := c.rec.now()
	b, err := c.ds.GetChunk(ctx, chunkID)
	c.leaf(ctx, kGetChunk, start)
	return b, err
}

func (c *clientSeam) GetBatch(ctx context.Context, paths []string) ([][]byte, error) {
	if !c.rec.on.Load() {
		return c.ds.GetBatch(ctx, paths)
	}
	start := c.rec.now()
	b, err := c.ds.GetBatch(ctx, paths)
	c.leaf(ctx, kGetBatch, start)
	return b, err
}

func (c *clientSeam) GetDirect(ctx context.Context, path string) ([]byte, error) {
	if !c.rec.on.Load() {
		return c.ds.GetDirect(ctx, path)
	}
	start := c.rec.now()
	b, err := c.ds.GetDirect(ctx, path)
	c.leaf(ctx, kGetDirect, start)
	return b, err
}

func (c *clientSeam) Stat(ctx context.Context, path string) (client.StatInfo, error) {
	if !c.rec.on.Load() {
		return c.ds.Stat(path)
	}
	start := c.rec.now()
	st, err := c.ds.Stat(path)
	c.leaf(ctx, kStat, start)
	return st, err
}

// --- epoch.FileReader + ViewReader ---

type readerSeam struct {
	peer *dcache.Peer
	rec  *recorder
}

func (r *readerSeam) ReadFileContext(ctx context.Context, path string) ([]byte, error) {
	if !r.rec.on.Load() {
		return r.peer.ReadFileContext(ctx, path)
	}
	start := r.rec.now()
	b, err := r.peer.ReadFileContext(ctx, path)
	p := refFrom(ctx)
	r.rec.add(kDcacheRead, r.rec.nextID.Add(1), p.id, p.req, start)
	return b, err
}

func (r *readerSeam) ReadFileViewContext(ctx context.Context, path string) ([]byte, error) {
	if !r.rec.on.Load() {
		return r.peer.ReadFileViewContext(ctx, path)
	}
	start := r.rec.now()
	b, err := r.peer.ReadFileViewContext(ctx, path)
	p := refFrom(ctx)
	r.rec.add(kDcacheRead, r.rec.nextID.Add(1), p.id, p.req, start)
	return b, err
}

// --- server.Backend (+ its context-aware extension) ---

type backendSeam struct {
	kv  *kvstore.Cluster
	rec *recorder
}

func (b *backendSeam) root(k spanKind, start int64) {
	b.rec.add(k, b.rec.nextID.Add(1), 0, 0, start)
}

func (b *backendSeam) Get(key string) ([]byte, error) {
	return b.GetContext(context.Background(), key)
}

func (b *backendSeam) GetContext(ctx context.Context, key string) ([]byte, error) {
	if !b.rec.on.Load() {
		return b.kv.GetContext(ctx, key)
	}
	start := b.rec.now()
	v, err := b.kv.GetContext(ctx, key)
	b.root(kKVGet, start)
	return v, err
}

func (b *backendSeam) MGet(keys []string) ([][]byte, error) {
	return b.MGetContext(context.Background(), keys)
}

func (b *backendSeam) MGetContext(ctx context.Context, keys []string) ([][]byte, error) {
	if !b.rec.on.Load() {
		return b.kv.MGetContext(ctx, keys)
	}
	start := b.rec.now()
	v, err := b.kv.MGetContext(ctx, keys)
	b.root(kKVMGet, start)
	b.rec.mgetKeys.Add(uint64(len(keys)))
	return v, err
}

func (b *backendSeam) MSet(pairs []kvstore.KV) error {
	if !b.rec.on.Load() {
		return b.kv.MSet(pairs)
	}
	start := b.rec.now()
	err := b.kv.MSet(pairs)
	b.root(kKVMSet, start)
	return err
}

func (b *backendSeam) Set(key string, value []byte) error {
	if !b.rec.on.Load() {
		return b.kv.Set(key, value)
	}
	start := b.rec.now()
	err := b.kv.Set(key, value)
	b.root(kKVOther, start)
	return err
}

func (b *backendSeam) Del(key string) (bool, error) {
	if !b.rec.on.Load() {
		return b.kv.Del(key)
	}
	start := b.rec.now()
	ok, err := b.kv.Del(key)
	b.root(kKVOther, start)
	return ok, err
}

func (b *backendSeam) ScanPrefix(prefix string) ([]kvstore.KV, error) {
	if !b.rec.on.Load() {
		return b.kv.ScanPrefix(prefix)
	}
	start := b.rec.now()
	out, err := b.kv.ScanPrefix(prefix)
	b.root(kKVOther, start)
	return out, err
}

func (b *backendSeam) DBSize() (uint64, error) { return b.kv.DBSize() }

// --- objstore.Store (+ PooledReader) ---

// storeSeam sits above the store the server is given (base = kObjGet) and,
// on mixed_rw, a second one sits between Tiered and its slow tier
// (base = kSlowGet). The four kinds of a seam are consecutive.
type storeSeam struct {
	inner objstore.Store
	rec   *recorder
	base  spanKind
	count bool // the server-facing seam also counts bytes returned
}

func (s *storeSeam) done(k spanKind, start int64, n int) {
	s.rec.add(s.base+k, s.rec.nextID.Add(1), 0, 0, start)
	if s.count {
		s.rec.readBytes.Add(uint64(n))
	}
}

const (
	offGet spanKind = iota
	offGetRange
	offPut
	offOther
)

func (s *storeSeam) Get(key string) ([]byte, error) {
	if !s.rec.on.Load() {
		return s.inner.Get(key)
	}
	start := s.rec.now()
	b, err := s.inner.Get(key)
	s.done(offGet, start, len(b))
	return b, err
}

func (s *storeSeam) GetPooled(key string) ([]byte, func(), error) {
	if !s.rec.on.Load() {
		return objstore.GetPooled(s.inner, key)
	}
	start := s.rec.now()
	b, rel, err := objstore.GetPooled(s.inner, key)
	s.done(offGet, start, len(b))
	return b, rel, err
}

func (s *storeSeam) GetRange(key string, off, n int64) ([]byte, error) {
	if !s.rec.on.Load() {
		return s.inner.GetRange(key, off, n)
	}
	start := s.rec.now()
	b, err := s.inner.GetRange(key, off, n)
	s.done(offGetRange, start, len(b))
	return b, err
}

func (s *storeSeam) GetRangePooled(key string, off, n int64) ([]byte, func(), error) {
	if !s.rec.on.Load() {
		return objstore.GetRangePooled(s.inner, key, off, n)
	}
	start := s.rec.now()
	b, rel, err := objstore.GetRangePooled(s.inner, key, off, n)
	s.done(offGetRange, start, len(b))
	return b, rel, err
}

func (s *storeSeam) Put(key string, data []byte) error {
	if !s.rec.on.Load() {
		return s.inner.Put(key, data)
	}
	start := s.rec.now()
	err := s.inner.Put(key, data)
	s.done(offPut, start, 0)
	return err
}

func (s *storeSeam) Delete(key string) error {
	if !s.rec.on.Load() {
		return s.inner.Delete(key)
	}
	start := s.rec.now()
	err := s.inner.Delete(key)
	s.done(offOther, start, 0)
	return err
}

func (s *storeSeam) List(prefix string) ([]string, error) { return s.inner.List(prefix) }
func (s *storeSeam) Size(key string) (int64, error)       { return s.inner.Size(key) }

// --- aggregation ---

// kindStats summarises the spans of one kind.
type kindStats struct {
	n      int
	sumUS  float64
	sorted []float64 // durations in µs, ascending
}

func (k kindStats) p(q float64) float64 { return percentile(k.sorted, q) }
func (k kindStats) mean() float64 {
	if k.n == 0 {
		return 0
	}
	return k.sumUS / float64(k.n)
}

func aggregate(spans []span) [numKinds]kindStats {
	var out [numKinds]kindStats
	for _, s := range spans {
		d := float64(s.End-s.Start) / 1e3
		k := &out[s.Kind]
		k.n++
		k.sumUS += d
		k.sorted = append(k.sorted, d)
	}
	for i := range out {
		sort.Float64s(out[i].sorted)
	}
	return out
}

// selfUS returns the total self time of the spans of kind k: each span's
// duration minus the part of it its children cover (children may overlap
// each other, so the cover is the union of their intervals).
func selfUS(spans []span, k spanKind) float64 {
	kids := make(map[uint32][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var self int64
	for _, s := range spans {
		if s.Kind == k {
			self += s.End - s.Start - covered(kids[s.ID], s.Start, s.End)
		}
	}
	return float64(self) / 1e3
}

// covered returns how much of [lo, hi) the spans cover, overlaps counted
// once. The spans must be in start order, as snapshot returns them.
func covered(spans []span, lo, hi int64) int64 {
	var sum int64
	edge := lo
	for _, x := range spans {
		a, b := max(x.Start, edge), min(x.End, hi)
		if b > a {
			sum += b - a
			edge = b
		}
	}
	return sum
}

// writeTrace dumps the spans, one JSON object per line.
func writeTrace(path string, spans []span) error {
	type row struct {
		Name   string `json:"name"`
		ID     uint32 `json:"id"`
		Parent uint32 `json:"parent"`
		Req    uint64 `json:"req"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(row{kindNames[s.Kind], s.ID, s.Parent, s.Req, s.Start, s.End}); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
