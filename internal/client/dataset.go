package client

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"diesel/internal/chunk"
	"diesel/internal/meta"
	"diesel/internal/server"
	"diesel/internal/shuffle"
	"diesel/internal/tracing"
	"diesel/internal/wire"
)

// Dataset is a handle on one dataset reached through a connection: the
// unit every read, write, shuffle and metadata operation hangs off. A
// connection can hold handles on many datasets concurrently (multi-job
// trainers, admin tools); each handle carries its own chunk builder,
// metadata snapshot and read interceptor, while all of them share the
// connection's transport, retry policy and job identity.
//
// All methods are safe for concurrent use; writes serialise on the
// handle's chunk builder.
type Dataset struct {
	c    *Client
	name string

	wmu     sync.Mutex
	builder *chunk.Builder
	pending int // files buffered but not flushed

	smu    sync.RWMutex
	snap   *meta.Snapshot
	reader Reader
}

// Name returns the dataset this handle operates on.
func (d *Dataset) Name() string { return d.name }

// Rank returns the connection's rank among the task's I/O workers.
func (d *Dataset) Rank() int { return d.c.opts.Rank }

// SetReader installs a read interceptor (the distributed cache) on this
// handle.
func (d *Dataset) SetReader(r Reader) {
	d.smu.Lock()
	d.reader = r
	d.smu.Unlock()
}

// Snapshot returns the loaded metadata snapshot, or nil.
func (d *Dataset) Snapshot() *meta.Snapshot {
	d.smu.RLock()
	defer d.smu.RUnlock()
	return d.snap
}

// --- write path ---

// Put buffers one file for writing (DL_put). When the chunk builder
// reaches its target size the chunk is sealed and shipped to a server.
func (d *Dataset) Put(path string, data []byte) error {
	if err := meta.ValidFilePath(path); err != nil {
		return err
	}
	d.wmu.Lock()
	defer d.wmu.Unlock()
	full, err := d.builder.Add(meta.CleanPath(path), data)
	if err != nil {
		return err
	}
	d.pending++
	if full {
		return d.flushLocked()
	}
	return nil
}

// Flush seals and ships any buffered files (DL_flush).
func (d *Dataset) Flush() error {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	return d.flushLocked()
}

func (d *Dataset) flushLocked() error {
	if d.builder == nil || d.builder.Count() == 0 {
		return nil // nothing buffered
	}
	hdr, payload, err := d.builder.SealParts()
	if err != nil {
		return err
	}
	// The request is String(dataset) + Bytes32(encoded chunk) with the
	// chunk's payload lent: it goes to the socket out of the builder's
	// buffer, which is the builder's again when the call returns.
	e := wire.AcquireEncoder(len(d.name) + 8 + len(hdr))
	e.String(d.name)
	e.Uint32(uint32(len(hdr) + len(payload)))
	head := append(e.Bytes(), hdr...)
	_, err = d.c.nextPool().CallLendContext(context.Background(), server.MethodIngest, head, payload)
	e.Release()
	if err != nil {
		return fmt.Errorf("client: flush: %w", err)
	}
	d.pending = 0
	return nil
}

// --- read path (context-first: the deadline/cancellation is part of the
// signature, not a *Context twin) ---

// Get reads one file (DL_get). With a cache reader installed the request
// goes to the owning cache peer; otherwise it goes to a server. The
// context reaches the transport either way.
func (d *Dataset) Get(ctx context.Context, path string) (out []byte, err error) {
	start := time.Now()
	ctx, sp := tracing.StartSpan(ctx, "client.get")
	sp.SetAttr("path", path)
	defer func() {
		mGetLat.Since(start)
		sp.SetError(err)
		sp.End()
		tracing.ObserveSlow(sp, "diesel_client_get_seconds", time.Since(start))
	}()
	d.c.Stats.Gets.Add(1)
	d.smu.RLock()
	r := d.reader
	d.smu.RUnlock()
	if r != nil {
		return r.ReadFileContext(ctx, meta.CleanPath(path))
	}
	return d.GetDirect(ctx, path)
}

// GetDirect reads one file from a server, bypassing any installed cache.
// The distributed cache itself uses it as its miss path.
func (d *Dataset) GetDirect(ctx context.Context, path string) (out []byte, err error) {
	ctx, sp := tracing.StartSpan(ctx, "client.getDirect")
	sp.SetAttr("path", path)
	defer func() { sp.SetError(err); sp.End() }()
	e := wire.AcquireEncoder(len(path) + len(d.name) + 16)
	e.String(d.name)
	e.String(meta.CleanPath(path))
	resp, err := d.c.callIdem(ctx, server.MethodGet, e.Bytes())
	e.Release()
	if err != nil {
		return nil, err
	}
	// The response payload is the caller's (see GetChunk): the file is a
	// window into it.
	dec := wire.NewDecoder(resp)
	return dec.Bytes32(), dec.Err()
}

// GetBatch reads many files in one server round trip, exercising the
// request executor's sort-and-merge (missing files yield nil entries). The
// files are windows into one response allocation, like GetDirect's and
// GetChunk's: the caller owns them, and retaining one retains the batch.
func (d *Dataset) GetBatch(ctx context.Context, paths []string) (out [][]byte, err error) {
	ctx, sp := tracing.StartSpan(ctx, "client.getBatch")
	sp.SetAttr("files", strconv.Itoa(len(paths)))
	defer func() { sp.SetError(err); sp.End() }()
	// Encoder.StringSlice's layout, the paths cleaned on the way in.
	e := wire.AcquireEncoder(64)
	e.String(d.name)
	e.Uint32(uint32(len(paths)))
	for _, p := range paths {
		e.String(meta.CleanPath(p))
	}
	resp, err := d.c.callIdem(ctx, server.MethodGetBatch, e.Bytes())
	e.Release()
	if err != nil {
		return nil, err
	}
	out, err = splitBatch(resp, len(paths))
	if err != nil {
		return nil, err
	}
	d.c.Stats.Gets.Add(uint64(len(out)))
	return out, nil
}

// splitBatch cuts a dsl.getBatch response for n files into the files. The
// response is a table — the count, then a present flag and a length per
// file — and a body, the present files back to back. The response is the
// caller's (see GetChunk): each present file is a window into it, capped
// so that an append to one file cannot reach the next, and retaining one
// file retains the batch. A missing file is nil.
func splitBatch(resp []byte, n int) ([][]byte, error) {
	dec := wire.NewDecoder(resp)
	if got := dec.Uint32(); dec.Err() != nil || int(got) != n {
		return nil, fmt.Errorf("client: batch response of %d files for a batch of %d", got, n)
	}
	tableLen := 4 + 5*n
	if len(resp) < tableLen {
		return nil, fmt.Errorf("client: batch response of %d bytes, short of its %d-byte table", len(resp), tableLen)
	}
	body := resp[tableLen:]
	out := make([][]byte, n)
	off := 0
	for i := range out {
		present, size := dec.Bool(), int(dec.Uint32())
		if size > len(body)-off {
			return nil, fmt.Errorf("client: batch response: file %d overruns the body", i)
		}
		if present {
			out[i] = body[off : off+size : off+size]
		} else if size != 0 {
			return nil, fmt.Errorf("client: batch response: missing file %d has %d bytes", i, size)
		}
		off += size
	}
	if off != len(body) {
		return nil, fmt.Errorf("client: batch response: a %d-byte body for a table of %d bytes", len(body), off)
	}
	return out, nil
}

// GetChunk fetches one whole encoded chunk from a server — the operation
// the distributed cache loads its partition with and the fetch unit of
// the epoch reader's prefetch pipeline.
func (d *Dataset) GetChunk(ctx context.Context, chunkID string) (out []byte, err error) {
	ctx, sp := tracing.StartSpan(ctx, "client.getChunk")
	sp.SetAttr("chunk", chunkID)
	defer func() { sp.SetError(err); sp.End() }()
	e := wire.AcquireEncoder(len(chunkID) + len(d.name) + 16)
	e.String(d.name)
	e.String(chunkID)
	resp, err := d.c.callIdem(ctx, server.MethodGetChunk, e.Bytes())
	e.Release()
	if err != nil {
		return nil, err
	}
	// The response payload is the caller's: one allocation of its exact
	// size that the socket read filled, so the chunk is a window into it,
	// not a copy of it.
	dec := wire.NewDecoder(resp)
	return dec.Bytes32(), dec.Err()
}

// --- metadata path ---

// Stat returns a file's metadata (DL_stat). With a snapshot loaded it is
// a local hashmap probe; otherwise one server RPC.
func (d *Dataset) Stat(path string) (StatInfo, error) {
	d.smu.RLock()
	snap := d.snap
	d.smu.RUnlock()
	if snap != nil {
		m, err := snap.Stat(path)
		if err != nil {
			return StatInfo{}, err
		}
		return StatInfo{
			Size:      m.Length,
			UpdatedNS: snap.UpdatedNS,
			ChunkID:   snap.Chunks[m.ChunkIdx].ID.String(),
		}, nil
	}
	d.c.Stats.ServerMetaOps.Add(1)
	e := wire.AcquireEncoder(len(d.name) + len(path) + 8)
	e.String(d.name)
	e.String(meta.CleanPath(path))
	resp, err := d.c.callIdem(context.Background(), server.MethodStat, e.Bytes())
	e.Release()
	if err != nil {
		return StatInfo{}, err
	}
	fr, err := meta.DecodeFileRecord(resp)
	if err != nil {
		return StatInfo{}, err
	}
	return StatInfo{Size: fr.Length, ChunkID: fr.ChunkID.String()}, nil
}

// Ls lists a directory (DL_ls): snapshot-local when loaded, otherwise one
// server RPC, answered from the same committed view a snapshot is built
// from. A directory that does not exist fails with meta.ErrNotExist from
// a snapshot, and with its message from the server.
func (d *Dataset) Ls(dir string) ([]Entry, error) {
	d.smu.RLock()
	snap := d.snap
	d.smu.RUnlock()
	if snap != nil {
		des, err := snap.List(dir)
		if err != nil {
			return nil, err
		}
		out := make([]Entry, len(des))
		for i, de := range des {
			out[i] = Entry{Name: de.Name, IsDir: de.IsDir, Size: de.Size}
		}
		return out, nil
	}
	d.c.Stats.ServerMetaOps.Add(1)
	e := wire.NewEncoder(64)
	e.String(d.name)
	e.String(meta.CleanPath(dir))
	resp, err := d.c.callIdem(context.Background(), server.MethodList, e.Bytes())
	if err != nil {
		return nil, err
	}
	dec := wire.NewDecoder(resp)
	n := int(dec.Uint32())
	out := make([]Entry, 0, n)
	for range n {
		out = append(out, Entry{Name: dec.String(), IsDir: dec.Bool(), Size: dec.Uint64()})
	}
	return out, dec.Err()
}

// Delete removes a file (DL_delete).
func (d *Dataset) Delete(path string) error {
	e := wire.NewEncoder(64)
	e.String(d.name)
	e.String(meta.CleanPath(path))
	_, err := d.c.call(context.Background(), server.MethodDelete, e.Bytes())
	return err
}

// datasetRecord fetches the dataset's record, its update stamp, from a server.
func (d *Dataset) datasetRecord() (meta.DatasetRecord, error) {
	e := wire.NewEncoder(32)
	e.String(d.name)
	resp, err := d.c.callIdem(context.Background(), server.MethodDatasetRecord, e.Bytes())
	if err != nil {
		return meta.DatasetRecord{}, err
	}
	return meta.DecodeDatasetRecord(resp)
}

// DownloadSnapshot builds and downloads a fresh metadata snapshot and
// installs it in this handle.
func (d *Dataset) DownloadSnapshot() (*meta.Snapshot, error) {
	e := wire.NewEncoder(32)
	e.String(d.name)
	resp, err := d.c.callIdem(context.Background(), server.MethodSnapshot, e.Bytes())
	if err != nil {
		return nil, err
	}
	snap, err := meta.DecodeSnapshot(resp)
	if err != nil {
		return nil, err
	}
	d.smu.Lock()
	d.snap = snap
	d.smu.Unlock()
	return snap, nil
}

// SaveMeta downloads the dataset's metadata snapshot to a local file
// (DL_save_meta).
func (d *Dataset) SaveMeta(path string) error {
	snap, err := d.DownloadSnapshot()
	if err != nil {
		return err
	}
	return snap.SaveFile(path)
}

// LoadMeta loads a snapshot from local disk (DL_load_meta) and verifies
// it against the dataset record in the metadata database; a stale
// snapshot is rejected with meta.ErrStaleSnapshot and the caller should
// SaveMeta a fresh one.
func (d *Dataset) LoadMeta(path string) error {
	snap, err := meta.LoadFile(path)
	if err != nil {
		return err
	}
	if snap.Dataset != d.name {
		return fmt.Errorf("client: snapshot is for dataset %q, handle is %q", snap.Dataset, d.name)
	}
	rec, err := d.datasetRecord()
	if err != nil {
		return err
	}
	if err := snap.Validate(rec); err != nil {
		return err
	}
	d.smu.Lock()
	d.snap = snap
	d.smu.Unlock()
	return nil
}

// ShufflePlan generates the chunk-wise shuffled epoch order for one epoch
// (DL_shuffle, §4.3) with its group structure exposed: chunk IDs are
// shuffled, grouped groupSize at a time, and file order is randomised
// within each group. Requires a snapshot.
func (d *Dataset) ShufflePlan(seed int64, groupSize int) (*shuffle.Plan, error) {
	d.smu.RLock()
	snap := d.snap
	d.smu.RUnlock()
	if snap == nil {
		return nil, ErrNoSnapshot
	}
	return shuffle.ChunkWisePlan(snap, seed, groupSize), nil
}

// Recover asks a server to rebuild the dataset's metadata from its
// self-contained chunks (§4.1.2). fromSec 0 rescans everything; a
// positive Unix-seconds timestamp rescans only newer chunks. It returns
// chunks scanned, chunks skipped and pairs rewritten.
func (d *Dataset) Recover(fromSec uint32) (scanned, skipped, pairs uint64, err error) {
	e := wire.NewEncoder(32)
	e.String(d.name)
	e.Uint32(fromSec)
	resp, err := d.c.call(context.Background(), server.MethodRecover, e.Bytes())
	if err != nil {
		return 0, 0, 0, err
	}
	dec := wire.NewDecoder(resp)
	scanned, skipped, pairs = dec.Uint64(), dec.Uint64(), dec.Uint64()
	return scanned, skipped, pairs, dec.Err()
}

// Purge runs server-side housekeeping on the dataset (DL_purge).
func (d *Dataset) Purge() error {
	e := wire.NewEncoder(32)
	e.String(d.name)
	_, err := d.c.call(context.Background(), server.MethodPurge, e.Bytes())
	return err
}

// DeleteDataset removes the dataset entirely (DL_delete_dataset).
func (d *Dataset) DeleteDataset() error {
	e := wire.NewEncoder(32)
	e.String(d.name)
	_, err := d.c.call(context.Background(), server.MethodDeleteDataset, e.Bytes())
	return err
}
