package epoch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"diesel/internal/chunk"
	"diesel/internal/meta"
	"diesel/internal/shuffle"
)

// Source fetches the payloads of one plan group. Implementations decide
// the transfer granularity: whole chunks from the servers (ClientSource)
// or per-file reads through the task-grained cache (CacheSource). A
// Source must be safe for concurrent ReadGroup calls — the reader's
// window overlaps group fetches.
type Source interface {
	// ReadGroup returns the payloads of plan positions
	// [plan.Groups[g].Start, plan.Groups[g].End) in plan order.
	//
	// Returned payloads are read-only: sources may hand out windows into
	// a shared backing buffer (a fetched chunk, a cached chunk) instead
	// of per-file copies, so consumers that mutate or retain bytes past
	// the sample they came with must copy them first.
	ReadGroup(ctx context.Context, plan *shuffle.Plan, g int) ([][]byte, error)
}

// FileReader is the cache-side read surface CacheSource needs;
// *dcache.Peer implements it (and so does any client.Reader).
type FileReader interface {
	ReadFileContext(ctx context.Context, path string) ([]byte, error)
}

// ViewReader is the zero-copy upgrade of FileReader: ReadFileViewContext
// may return a read-only window into a cached chunk instead of an owned
// copy. CacheSource detects it with a type assertion, so a *dcache.Peer
// source serves cache-hit epochs copy-free while plain FileReaders keep
// working unchanged.
type ViewReader interface {
	ReadFileViewContext(ctx context.Context, path string) ([]byte, error)
}

// ChunkClient is the server-direct read surface ClientSource needs:
// whole-chunk fetches plus the batched file API it degrades to.
// *client.Dataset implements it.
type ChunkClient interface {
	GetChunk(ctx context.Context, chunkID string) ([]byte, error)
	GetBatch(ctx context.Context, paths []string) ([][]byte, error)
}

// ClientSource feeds an epoch reader straight from the DIESEL servers:
// each group fetch pulls the group's chunks whole (DL_get_chunk — the
// large sequential read of Table 2) and slices the files out locally
// using snapshot metadata. If a chunk cannot be fetched or parsed (e.g.
// purged mid-epoch), or the snapshot's file metadata no longer fits the
// chunk's payload (repacked mid-epoch), the affected files are re-read
// through the batched file API instead, so one stale chunk degrades to a
// batch RPC rather than failing the epoch.
type ClientSource struct {
	cl       ChunkClient
	snap     *meta.Snapshot
	parallel int
}

// NewClientSource builds a server-direct source (cl is typically a
// *client.Dataset handle). parallel bounds the concurrent chunk fetches within
// one group (<=0 means 4).
func NewClientSource(cl ChunkClient, snap *meta.Snapshot, parallel int) *ClientSource {
	if parallel <= 0 {
		parallel = 4
	}
	return &ClientSource{cl: cl, snap: snap, parallel: parallel}
}

// ReadGroup implements Source.
func (s *ClientSource) ReadGroup(ctx context.Context, plan *shuffle.Plan, g int) ([][]byte, error) {
	span := plan.Groups[g]

	// Fetch the group's chunks concurrently, bounded by parallel.
	chunks := make(map[int32]*fetched, len(span.Chunks))
	for _, ci := range span.Chunks {
		chunks[ci] = &fetched{}
	}
	// Acquire a slot before spawning, so a group never holds more than
	// parallel fetch goroutines at once.
	sem := make(chan struct{}, s.parallel)
	var wg sync.WaitGroup
	for _, ci := range span.Chunks {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break // the post-wait ctx check surfaces the cancellation
		}
		wg.Add(1)
		go func(ci int32) {
			defer wg.Done()
			defer func() { <-sem }()
			f := chunks[ci]
			blob, err := s.cl.GetChunk(ctx, s.snap.Chunks[ci].ID.String())
			if err != nil {
				f.err = err
				return
			}
			// Only the payload is read, at the snapshot's offsets: verify
			// the chunk, skip decoding its entry table.
			f.pay, f.err = chunk.Verify(blob)
		}(ci)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Files whose chunk failed fall back to one batched read.
	out := make([][]byte, span.End-span.Start)
	var missPos []int
	for pos := span.Start; pos < span.End; pos++ {
		m := s.snap.FileMetaAt(int(plan.Files[pos]))
		f := chunks[int32(m.ChunkIdx)]
		if f == nil || f.err != nil || f.pay == nil {
			missPos = append(missPos, pos)
			continue
		}
		pay := f.pay
		if m.Offset+m.Length > uint64(len(pay)) {
			// Stale snapshot metadata: the chunk on the server no longer
			// holds this file where the snapshot says (purged/repacked
			// mid-epoch, or a truncated blob). The documented contract is
			// that a stale chunk degrades to the batched file API, not
			// that it fails the epoch — route the file into the same
			// fallback as a failed chunk fetch.
			missPos = append(missPos, pos)
			continue
		}
		// Emit a view into the fetched chunk, not a copy: the group's
		// files collectively keep the chunk blob alive, and the full
		// slice expression keeps an append by a consumer from bleeding
		// into the next file's bytes.
		out[pos-span.Start] = pay[m.Offset : m.Offset+m.Length : m.Offset+m.Length]
	}
	if len(missPos) > 0 {
		paths := make([]string, len(missPos))
		for i, pos := range missPos {
			paths[i] = s.snap.FileName(int(plan.Files[pos]))
		}
		mChunkFallbacks.Add(uint64(len(missPos)))
		batch, err := s.cl.GetBatch(ctx, paths)
		if err != nil {
			return nil, joinChunkErrors(chunks, err)
		}
		for i, pos := range missPos {
			if batch[i] == nil {
				return nil, joinChunkErrors(chunks,
					fmt.Errorf("epoch: file %q missing from batch fallback", paths[i]))
			}
			out[pos-span.Start] = batch[i]
		}
	}
	return out, nil
}

// fetched is one chunk's fetch-and-verify outcome within a group read.
type fetched struct {
	pay []byte // the verified payload region
	err error
}

// joinChunkErrors decorates a fallback failure with the chunk errors that
// forced the fallback, so the surfaced error names the root cause.
func joinChunkErrors(chunks map[int32]*fetched, err error) error {
	for _, f := range chunks {
		if f.err != nil {
			return fmt.Errorf("%w (chunk fetch: %w)", err, f.err)
		}
	}
	return err
}

// CacheSource feeds an epoch reader through the task-grained distributed
// cache: each file goes to its owning master in one hop (Figure 7), and
// prefetching a group ahead pulls the group's chunks into the cache
// before the consumer arrives. parallel bounds concurrent file reads
// within one group.
type CacheSource struct {
	fr       FileReader
	read     func(ctx context.Context, path string) ([]byte, error)
	snap     *meta.Snapshot
	parallel int
}

// NewCacheSource builds a cache-backed source (fr is typically a
// *dcache.Peer). parallel <=0 means 8. A FileReader that also implements
// ViewReader is read through its zero-copy path: ReadGroup's contract
// already declares payloads read-only, so local cache hits can skip the
// defensive copy.
func NewCacheSource(fr FileReader, snap *meta.Snapshot, parallel int) *CacheSource {
	if parallel <= 0 {
		parallel = 8
	}
	read := fr.ReadFileContext
	if vr, ok := fr.(ViewReader); ok {
		read = vr.ReadFileViewContext
	}
	return &CacheSource{fr: fr, read: read, snap: snap, parallel: parallel}
}

// maxJoinedReadErrors caps how many per-file failures one group read
// reports; past it the joined error just counts the rest.
const maxJoinedReadErrors = 8

// ReadGroup implements Source. min(parallel, n) workers, the calling
// goroutine the last of them, take the group's positions from one atomic
// index, so a large group never holds more goroutines than parallel.
// Every file is attempted even after a failure, and all failures are
// joined so the caller sees each broken file, not just the first.
func (s *CacheSource) ReadGroup(ctx context.Context, plan *shuffle.Plan, g int) ([][]byte, error) {
	span := plan.Groups[g]
	r := &groupRead{s: s, ctx: ctx, plan: plan, start: span.Start, out: make([][]byte, span.End-span.Start)}
	workers := max(1, min(s.parallel, len(r.out)))
	r.wg.Add(workers)
	for range workers - 1 {
		go r.work()
	}
	r.work()
	r.wg.Wait()
	if r.errs == nil {
		return r.out, nil
	}

	var joined []error
	extra := 0
	for i, err := range r.errs {
		if err == nil {
			continue
		}
		if len(joined) >= maxJoinedReadErrors {
			extra++
			continue
		}
		joined = append(joined, fmt.Errorf("epoch: read %q: %w",
			s.snap.FileName(int(plan.Files[span.Start+i])), err))
	}
	if extra > 0 {
		joined = append(joined, fmt.Errorf("epoch: %d more file reads failed", extra))
	}
	return nil, errors.Join(joined...)
}

// groupRead is one CacheSource.ReadGroup in progress: everything its
// workers share, in one allocation.
type groupRead struct {
	s     *CacheSource
	ctx   context.Context
	plan  *shuffle.Plan
	start int          // the group's first plan position
	out   [][]byte     // payloads by position within the group
	next  atomic.Int64 // positions handed out so far
	wg    sync.WaitGroup

	mu   sync.Mutex
	errs []error // by position within the group; made by the first failure
}

// work reads positions until none are left.
func (r *groupRead) work() {
	defer r.wg.Done()
	for {
		i := int(r.next.Add(1) - 1)
		if i >= len(r.out) {
			return
		}
		err := r.ctx.Err()
		if err == nil {
			r.out[i], err = r.s.read(r.ctx, r.s.snap.FileName(int(r.plan.Files[r.start+i])))
		}
		if err != nil {
			r.mu.Lock()
			if r.errs == nil {
				r.errs = make([]error, len(r.out))
			}
			r.errs[i] = err
			r.mu.Unlock()
		}
	}
}
