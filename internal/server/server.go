// Package server implements the DIESEL server of Figure 2: the component
// that hides the object storage and the key-value metadata database behind
// one interface.
//
// On the write path it ingests client-built chunks, extracts the metadata
// encoded in each chunk header into key-value pairs, and stores the chunk
// in object storage (Figure 3). On the read path it answers single-file
// gets, batched reads through the request executor (which sorts and merges
// small file requests into chunk-wise operations), metadata queries, and
// snapshot downloads. It also implements the §4.1.2 fault-recovery paths
// that rebuild the metadata database by scanning self-contained chunks,
// and the housekeeping functions (purge, dataset deletion).
package server

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"diesel/internal/chunk"
	"diesel/internal/kvstore"
	"diesel/internal/meta"
	"diesel/internal/objstore"
	"diesel/internal/tracing"
)

// Backend is the key-value database interface the server stores metadata
// in. Both kvstore.Cluster (networked) and kvstore.Local (in-process)
// satisfy it. The read path uses the context forms, so trace spans and
// deadlines reach the metadata cluster's RPCs.
type Backend interface {
	Set(key string, value []byte) error
	Get(key string) ([]byte, error)
	GetContext(ctx context.Context, key string) ([]byte, error)
	MSet(pairs []kvstore.KV) error
	MGet(keys []string) ([][]byte, error)
	MGetContext(ctx context.Context, keys []string) ([][]byte, error)
	Del(key string) (bool, error)
	ScanPrefix(prefix string) ([]kvstore.KV, error)
	DBSize() (uint64, error)
}

// Errors returned by server operations.
var (
	ErrNoSuchDataset = errors.New("server: no such dataset")
	ErrNoSuchFile    = errors.New("server: no such file")
)

// Server is one DIESEL server instance. Multiple servers may share the
// same Backend and object store (the paper runs 1, 3 or 5); the server is
// stateless apart from two caches that check what they hold before they
// answer — chunk shapes, and per dataset the committed view at its last
// stamp — so any instance can serve any request.
type Server struct {
	kv      Backend
	objects objstore.Store
	nowNS   func() int64
	stamped atomic.Int64 // the last stamp this server wrote

	shapeMu sync.RWMutex
	shapes  map[shapeKey]chunkShape // the chunks' immutable shapes

	viewMu sync.Mutex
	views  map[string]*committedView // per dataset: the view last built

	// Exec holds the request executor's merge switch and statistics.
	Exec ExecutorConfig

	// Multi-job serving plane: the job roster (nil until EnableJobs),
	// per-tenant admission buckets, and the weighted-fair dispatch gate.
	jobs   atomic.Pointer[JobRegistry]
	quotas quotas
	Fair   FairGate
}

// New builds a server over the given metadata backend and object store.
func New(kv Backend, objects objstore.Store, nowNS func() int64) *Server {
	return &Server{
		kv:      kv,
		objects: objects,
		nowNS:   nowNS,
		shapes:  make(map[shapeKey]chunkShape),
		views:   make(map[string]*committedView),
		Exec:    ExecutorConfig{Merge: true, minFiles: mergeMinFiles, minSpan: mergeMinSpanFraction},
	}
}

// EnableJobs attaches a job registry over the given store (typically the
// deployment's etcd registry, shared by every server instance) and
// returns it. ttl <= 0 uses DefaultJobTTL. The registry uses the server's
// clock, so tests with an injected nowNS get deterministic lease expiry.
func (s *Server) EnableJobs(store JobStore, ttl time.Duration) *JobRegistry {
	r := NewJobRegistry(store, ttl, s.nowNS)
	s.jobs.Store(r)
	return r
}

// JobRegistry returns the attached registry, or nil when jobs are off.
func (s *Server) JobRegistry() *JobRegistry { return s.jobs.Load() }

// ObjectKey returns the object-store key a chunk is stored under: the
// dataset namespace plus the order-preserving printable chunk ID, so a
// prefix listing returns chunks in write order.
func ObjectKey(dataset, chunkID string) string { return dataset + "/" + chunkID }

// Ingest stores one encoded chunk: the chunk goes to object storage, the
// key-value pairs derived from its header go to the metadata database, and
// then the dataset record is stamped. This is the server side of the write
// flow in Figure 3. Both checksums are verified before anything is stored,
// so a chunk damaged on its way here is rejected (chunk.ErrHeaderCRC,
// chunk.ErrPayloadCRC) with no object and no metadata left behind. The
// stored object claims the chunk ID — objstore.Store.Put is create-only —
// so of two ingests under one ID, which only a misconfigured client mints,
// exactly one lands and the other fails with objstore.ErrExists, writing
// no metadata. encoded becomes the object store's: the caller must not
// modify it afterwards.
func (s *Server) Ingest(dataset string, encoded []byte) (*chunk.Header, error) {
	if err := meta.ValidDataset(dataset); err != nil {
		return nil, err
	}
	ck, err := chunk.Parse(encoded)
	if err != nil {
		return nil, fmt.Errorf("server: ingest rejected: %w", err)
	}
	h := ck.Header
	for _, e := range h.Entries {
		if err := meta.ValidFilePath(e.Name); err != nil {
			return nil, fmt.Errorf("server: ingest rejected: %w", err)
		}
	}
	if err := s.objects.Put(ObjectKey(dataset, h.ID.String()), encoded); err != nil {
		return nil, fmt.Errorf("server: store chunk: %w", err)
	}
	if _, err := s.putChunkMeta(dataset, h, uint64(len(encoded))); err != nil {
		return nil, fmt.Errorf("server: store metadata: %w", err)
	}
	if err := s.stamp(dataset); err != nil {
		return nil, err
	}
	return h, nil
}

// putChunkMeta writes the metadata pairs of one stored chunk and returns
// how many: its file records in one MSet, then its chunk record. The chunk
// record is written last because it commits the chunk: once it is
// visible, every file record the chunk wrote has landed. An MSet lands key
// by key (across KV nodes in parallel), so the chunk record inside it
// could be seen beside only some of its file records, and purge would take
// the missing ones for holes and retire a chunk whose remaining records
// were still on their way. Until its chunk record lands, no reader sees
// the chunk's files (see view and shapeOf).
func (s *Server) putChunkMeta(dataset string, h *chunk.Header, size uint64) (int, error) {
	pairs := meta.PairsForChunk(dataset, h, size) // the chunk record first
	if err := s.kv.MSet(toKVStore(pairs[1:])); err != nil {
		return 0, err
	}
	if err := s.kv.Set(pairs[0].Key, pairs[0].Value); err != nil {
		return 0, err
	}
	return len(pairs), nil
}

// stamp records that dataset changed: one blind write of its record,
// issued after the data writes it covers. A snapshot built before it
// carries the older stamp, so it is stale once the write lands; folding the
// stamp into the data's MSet would let a half-landed MSet carry a fresh one.
// The stamp is the clock, or one past this server's last stamp when the
// clock has not passed it, so no two of one server's changes carry the same
// stamp, and a snapshot or cached view at an equal stamp has seen them all.
func (s *Server) stamp(dataset string) error {
	last := s.stamped.Load()
	ns := max(s.nowNS(), last+1)
	for !s.stamped.CompareAndSwap(last, ns) {
		last = s.stamped.Load()
		ns = max(ns, last+1)
	}
	rec := meta.DatasetRecord{UpdatedNS: ns}
	return s.kv.Set(meta.DatasetKey(dataset), rec.Encode())
}

// datasetRecord returns a dataset's record, its update stamp;
// ErrNoSuchDataset when it has none.
func (s *Server) datasetRecord(dataset string) (meta.DatasetRecord, error) {
	b, err := s.kv.Get(meta.DatasetKey(dataset))
	if errors.Is(err, kvstore.ErrNotFound) {
		return meta.DatasetRecord{}, fmt.Errorf("%w: %q", ErrNoSuchDataset, dataset)
	}
	if err != nil {
		return meta.DatasetRecord{}, err
	}
	return meta.DecodeDatasetRecord(b)
}

// StatContext returns the metadata record of one file, with the request
// context threaded to the metadata backend. A file whose chunk has not
// committed is ErrNoSuchFile, as one with no record is.
func (s *Server) StatContext(ctx context.Context, dataset, path string) (meta.FileRecord, error) {
	fr, _, err := s.stat(ctx, dataset, path)
	return fr, err
}

// stat is StatContext that also returns the shape of the file's chunk,
// which the commit check looked up: the read path needs it next.
func (s *Server) stat(ctx context.Context, dataset, path string) (fr meta.FileRecord, shape chunkShape, err error) {
	b, err := s.kv.GetContext(ctx, meta.FileKey(dataset, path))
	if errors.Is(err, kvstore.ErrNotFound) {
		return fr, shape, fmt.Errorf("%w: %s/%s", ErrNoSuchFile, dataset, path)
	}
	if err != nil {
		return fr, shape, err
	}
	if fr, err = meta.DecodeFileRecord(b); err != nil {
		return fr, shape, err
	}
	shape, err = s.shapeOf(ctx, dataset, fr.ChunkID)
	return fr, shape, err
}

// chunkShape is what the read path needs to read a chunk: its object key,
// where the payload starts and how large the stored object is. All three
// are fixed when the chunk is sealed. A chunk ID is never reused (Purge
// re-packs into new IDs, a dataset deleted and written again gets new
// ones, and recovery re-derives the same two numbers from the stored
// chunk), so a cached shape cannot go stale: at worst it outlives its
// chunk, and then the object store says so.
type chunkShape struct {
	key       string // ObjectKey(dataset, chunk ID)
	headerLen uint32
	size      uint64
}

// shapeKey is what the shape cache is keyed by: the file record's own
// fields, so a warm lookup builds no string.
type shapeKey struct {
	dataset string
	id      chunk.ID
}

// maxChunkShapes bounds the shape cache (≈ 150 B an entry, so ≈ 10 MB).
// When full it is reset wholesale: a miss costs one metadata Get.
const maxChunkShapes = 1 << 16

// shapeOf is the point readers' commit check: it returns a chunk's shape —
// with the object key the caller reads the object store with next — from
// the cache or, once per chunk, from its chunk record. A chunk with no
// record has not committed (an ingest still in flight) or is gone, and its
// files do not exist: that is ErrNoSuchFile, wrapping kvstore.ErrNotFound.
// It is the read path's only use of that record, so a warm batch read
// costs its one batch stat and nothing more.
func (s *Server) shapeOf(ctx context.Context, dataset string, id chunk.ID) (chunkShape, error) {
	k := shapeKey{dataset, id}
	s.shapeMu.RLock()
	sh, ok := s.shapes[k]
	s.shapeMu.RUnlock()
	if ok {
		return sh, nil
	}
	idStr := id.String()
	b, err := s.kv.GetContext(ctx, meta.ChunkKey(dataset, idStr))
	if errors.Is(err, kvstore.ErrNotFound) {
		return chunkShape{}, fmt.Errorf("%w: chunk %s/%s has no record: %w", ErrNoSuchFile, dataset, idStr, err)
	}
	if err != nil {
		return chunkShape{}, fmt.Errorf("server: chunk record %s: %w", idStr, err)
	}
	cr, err := meta.DecodeChunkRecord(b)
	if err != nil {
		return chunkShape{}, err
	}
	sh = chunkShape{key: ObjectKey(dataset, idStr), headerLen: cr.HeaderLen, size: cr.Size}
	s.shapeMu.Lock()
	if len(s.shapes) >= maxChunkShapes {
		clear(s.shapes)
	}
	s.shapes[k] = sh
	s.shapeMu.Unlock()
	return sh, nil
}

// forgetShape drops one chunk's cached shape, for a chunk that is gone.
func (s *Server) forgetShape(dataset string, id chunk.ID) {
	s.shapeMu.Lock()
	delete(s.shapes, shapeKey{dataset, id})
	s.shapeMu.Unlock()
}

// forgetDataset drops the cached shapes of every chunk of dataset, and its
// cached view.
func (s *Server) forgetDataset(dataset string) {
	s.shapeMu.Lock()
	for k := range s.shapes {
		if k.dataset == dataset {
			delete(s.shapes, k)
		}
	}
	s.shapeMu.Unlock()
	s.viewMu.Lock()
	delete(s.views, dataset)
	s.viewMu.Unlock()
}

// GetFilePooled reads one file's content via a metadata lookup plus an
// object-store range read; under a sampled trace the two appear as
// separate spans, which is the split Fig. 8's latency breakdown needs. It
// is the zero-copy read path: the bytes live in a pooled read buffer and
// the caller must call release exactly once when done with them (only on
// success). The RPC layer encodes the response straight out of the buffer
// and releases it, so a single-file read costs no GC allocation for the
// file bytes.
func (s *Server) GetFilePooled(ctx context.Context, dataset, path string) ([]byte, func(), error) {
	sp := tracing.ChildOf(ctx, "server.stat")
	statCtx := ctx
	if sp != nil {
		statCtx = tracing.ContextWith(ctx, sp)
	}
	fr, shape, err := s.stat(statCtx, dataset, path)
	sp.SetError(err)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	sp = tracing.ChildOf(ctx, "objstore.getRange")
	b, release, err := s.borrowFile(shape, fr)
	if sp != nil {
		sp.SetAttr("bytes", strconv.Itoa(len(b)))
		sp.SetError(err)
		sp.End()
	}
	return b, release, err
}

// errOutOfChunk says a file record's Offset+Length overruns its chunk.
var errOutOfChunk = errors.New("out of chunk bounds")

// borrowFile is the range read both file paths share (GetFilePooled, and
// the executor for a group it does not merge): fr's bytes, on loan from the
// object store. The store clamps a range that runs past the object's end,
// so a short answer means the record overruns its chunk: that is
// errOutOfChunk, with nothing left on loan.
func (s *Server) borrowFile(shape chunkShape, fr meta.FileRecord) ([]byte, func(), error) {
	b, release, err := objstore.GetRangePooled(s.objects, shape.key, int64(shape.headerLen)+int64(fr.Offset), int64(fr.Length))
	if err != nil {
		return nil, nil, fmt.Errorf("server: range read %s: %w", fr.FullName, err)
	}
	if uint64(len(b)) != fr.Length {
		release()
		return nil, nil, fmt.Errorf("server: file %q: %w", fr.FullName, errOutOfChunk)
	}
	return b, release, nil
}

// GetChunkPooled returns one encoded chunk in full — the operation the
// task-grained distributed cache loads datasets with — on the zero-copy
// read path: the encoded chunk lives in a pooled read buffer and the
// caller must call release exactly once when done (only on success). The
// RPC layer uses this so serving a multi-megabyte chunk fetch allocates
// nothing for the chunk bytes beyond the response frame.
func (s *Server) GetChunkPooled(ctx context.Context, dataset, chunkID string) ([]byte, func(), error) {
	sp := tracing.ChildOf(ctx, "objstore.get")
	sp.SetAttr("chunk", chunkID)
	b, release, err := objstore.GetPooled(s.objects, ObjectKey(dataset, chunkID))
	if sp != nil {
		sp.SetAttr("bytes", strconv.Itoa(len(b)))
		sp.SetError(err)
		sp.End()
	}
	return b, release, err
}

// committedView is one dataset's committed view, built into a snapshot,
// and the snapshot's encoding, made by its first dsl.snapshot. The
// snapshot's UpdatedNS is the stamp read before the scan that built it: a
// change whose data the scan missed stamps the dataset after, with another
// stamp.
type committedView struct {
	snap   *meta.Snapshot
	encode func() []byte
}

// viewOf returns dataset's committed view at its current stamp: the view
// last built while the dataset record still holds that view's stamp —
// one Get — and otherwise one built now, which replaces it. dsl.ls and
// dsl.snapshot answer from it. Two callers that miss at once each build;
// the last one stored stays, and the stamp check keeps either right.
func (s *Server) viewOf(dataset string) (*committedView, error) {
	rec, err := s.datasetRecord(dataset)
	if err != nil {
		return nil, err
	}
	s.viewMu.Lock()
	v := s.views[dataset]
	s.viewMu.Unlock()
	if v != nil && v.snap.UpdatedNS == rec.UpdatedNS {
		return v, nil
	}
	snap, err := s.BuildSnapshot(dataset)
	if err != nil {
		return nil, err
	}
	v = &committedView{snap: snap, encode: sync.OnceValue(snap.Encode)}
	s.viewMu.Lock()
	s.views[dataset] = v
	s.viewMu.Unlock()
	return v, nil
}

// BuildSnapshot materialises the dataset's committed view into a snapshot
// clients can download (§4.1.3). It reads the dataset record before the
// view, so the snapshot carries the stamp of a moment before its scan.
func (s *Server) BuildSnapshot(dataset string) (*meta.Snapshot, error) {
	rec, err := s.datasetRecord(dataset)
	if err != nil {
		return nil, err
	}
	b := meta.NewSnapshotBuilder(dataset, rec.UpdatedNS)
	err = s.view(dataset, func(id chunk.ID, cr meta.ChunkRecord) {
		b.AddChunk(id, cr.Size, cr.HeaderLen) // IDs are unique: its index is the view's
	}, func(ci int, fr meta.FileRecord) {
		b.AddFile(fr.FullName, meta.FileMeta{ChunkIdx: ci, Offset: fr.Offset, Length: fr.Length})
	})
	if err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// view reads dataset's committed view. It calls onChunk for each committed
// chunk, in write order, then onFile for each file of the view with its
// chunk's position in that order. It is the one place the rule is
// written: a file exists iff its record names a chunk whose record has
// landed, and a directory exists iff such a file lies under it. Every
// listing reader (BuildSnapshot, and through viewOf dsl.ls and
// dsl.snapshot; purge) answers from it; the point readers check the same
// rule through shapeOf.
//
// The chunk records are scanned before the file records. A chunk record is
// written only after all its file records have landed (putChunkMeta), so
// every chunk the first scan sees has all its records in place before the
// second begins: a file of it missing from the second scan is a real hole,
// and a file whose chunk the first scan did not see belongs to an ingest
// that has not committed, and is left out.
//
// It reads and decodes every file record of the dataset: O(files).
func (s *Server) view(dataset string, onChunk func(chunk.ID, meta.ChunkRecord), onFile func(int, meta.FileRecord)) error {
	prefix := meta.ChunkScanPrefix(dataset)
	chunks, err := s.kv.ScanPrefix(prefix)
	if err != nil {
		return err
	}
	idx := make(map[chunk.ID]int, len(chunks))
	for _, kv := range chunks {
		id, err := chunk.ParseID(kv.Key[len(prefix):])
		if err != nil {
			return fmt.Errorf("server: bad chunk key %q: %w", kv.Key, err)
		}
		cr, err := meta.DecodeChunkRecord(kv.Value)
		if err != nil {
			return err
		}
		idx[id] = len(idx)
		onChunk(id, cr)
	}

	files, err := s.kv.ScanPrefix(meta.FileDatasetPrefix(dataset))
	if err != nil {
		return err
	}
	for _, kv := range files {
		fr, err := meta.DecodeFileRecord(kv.Value)
		if err != nil {
			return err
		}
		if ci, ok := idx[fr.ChunkID]; ok {
			onFile(ci, fr)
		}
	}
	return nil
}

// deleteFile removes one file: one Del of its file record, then the stamp.
// The bytes stay in the chunk until purge rewrites it (§4.1.1's
// delete-then-rewrite model); purge finds the hole because fewer file
// records name the chunk than it has entries.
func (s *Server) deleteFile(dataset, path string) error {
	existed, err := s.kv.Del(meta.FileKey(dataset, path))
	if err != nil {
		return err
	}
	if !existed {
		return fmt.Errorf("%w: %s/%s", ErrNoSuchFile, dataset, path)
	}
	return s.stamp(dataset)
}

// KVSize reports the metadata database's total key count, used by tests
// and experiments.
func (s *Server) KVSize() (uint64, error) { return s.kv.DBSize() }

func toKVStore(pairs []meta.KV) []kvstore.KV {
	out := make([]kvstore.KV, len(pairs))
	for i, p := range pairs {
		out[i] = kvstore.KV{Key: p.Key, Value: p.Value}
	}
	return out
}
