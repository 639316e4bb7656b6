package server

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"diesel/internal/chunk"
	"diesel/internal/meta"
	"diesel/internal/objstore"
	"diesel/internal/tracing"
)

// ExecutorConfig holds the one switch and the statistics of the request
// executor, the component that "sorts and merges small file requests to
// chunk-wise operations" (§4, Figure 2). With Merge disabled every file
// costs one object-store range read — the ablation baseline. With it
// enabled, a group of requests that land in one chunk is served by a single
// whole-chunk read once mergeMinFiles files or mergeMinSpanFraction of the
// chunk's bytes are requested together.
type ExecutorConfig struct {
	// Merge enables request merging. Off = one backend read per file.
	Merge bool

	// The merge rule's two thresholds: mergeMinFiles and
	// mergeMinSpanFraction, fields only so that tests can walk the rule's
	// edges.
	minFiles int
	minSpan  float64

	// Stats accumulates executor behaviour for experiments.
	Stats ExecutorStats
}

// The executor's fixed settings, the ones the paper-style experiments ran
// with: a chunk read once 4 files or 25% of the chunk's bytes are requested
// together, at most 8 concurrent backend reads for one batch.
const (
	mergeMinFiles        = 4
	mergeMinSpanFraction = 0.25
	execParallelism      = 8
)

// ExecutorStats counts backend traffic. All fields are atomics so
// experiments can read them while a workload runs.
type ExecutorStats struct {
	ChunkReads   atomic.Uint64 // whole-chunk fetches
	RangeReads   atomic.Uint64 // per-file range fetches
	BackendBytes atomic.Uint64 // total bytes pulled from the object store
	FilesServed  atomic.Uint64
}

// GetFilesContext serves a batch of file reads. The result is parallel to
// paths; entries for missing files are nil. The executor groups requests
// by chunk, sorts each group by offset, and chooses per group between one
// whole-chunk read and per-file range reads. The request context is
// threaded through the batch stat and each group read, so a sampled trace
// decomposes one batch into its metadata fan-out and its per-chunk backend
// reads.
func (s *Server) GetFilesContext(ctx context.Context, dataset string, paths []string) ([][]byte, error) {
	out := make([][]byte, len(paths))
	if len(paths) == 0 {
		return out, nil
	}

	keys := make([]string, len(paths))
	for i, p := range paths {
		keys[i] = meta.FileKey(dataset, p)
	}
	sp := tracing.ChildOf(ctx, "exec.batchStat")
	sp.SetAttr("files", strconv.Itoa(len(keys)))
	statCtx := ctx
	if sp != nil {
		statCtx = tracing.ContextWith(ctx, sp)
	}
	recs, err := s.kv.MGetContext(statCtx, keys)
	sp.SetError(err)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("server: batch stat: %w", err)
	}

	groups := make(map[chunk.ID][]fileReq)
	for i, b := range recs {
		if b == nil {
			continue // missing file → nil output
		}
		fr, err := meta.DecodeFileRecord(b)
		if err != nil {
			return nil, err
		}
		groups[fr.ChunkID] = append(groups[fr.ChunkID], fileReq{idx: i, fr: fr})
	}

	// Deterministic chunk order: sorted by ID (write order), so backend
	// access patterns are sequential-friendly.
	ids := make([]chunk.ID, 0, len(groups))
	for id := range groups {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a].Less(ids[b]) })

	sem := make(chan struct{}, execParallelism)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	for _, id := range ids {
		grp := groups[id]
		sort.Slice(grp, func(a, b int) bool { return grp[a].fr.Offset < grp[b].fr.Offset })
		wg.Add(1)
		sem <- struct{}{}
		go func(id chunk.ID, grp []fileReq) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := s.serveGroup(ctx, dataset, id, grp, func(i int, b []byte) { out[i] = b }); err != nil {
				fail(err)
			}
		}(id, grp)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	s.Exec.Stats.FilesServed.Add(uint64(len(paths)))
	return out, nil
}

// fileReq pairs one requested path's position with its metadata record.
type fileReq struct {
	idx int // position in the request batch
	fr  meta.FileRecord
}

// serveGroup serves all requests that fall in one chunk.
func (s *Server) serveGroup(ctx context.Context, dataset string, id chunk.ID, grp []fileReq, emit func(int, []byte)) (err error) {
	idStr := id.String()

	sp := tracing.ChildOf(ctx, "exec.group")
	if sp != nil {
		sp.SetAttr("chunk", idStr)
		sp.SetAttr("files", strconv.Itoa(len(grp)))
		ctx = tracing.ContextWith(ctx, sp)
		defer func() { sp.SetError(err); sp.End() }()
	}

	var wantBytes uint64
	for _, r := range grp {
		wantBytes += r.fr.Length
	}

	key, shape, err := s.shapeOf(ctx, dataset, idStr)
	if err != nil {
		return err
	}
	hl := shape.headerLen
	merge := s.Exec.Merge && (len(grp) >= s.Exec.minFiles ||
		(shape.size > 0 && float64(wantBytes) >= s.Exec.minSpan*float64(shape.size)))
	sp.SetAttr("merge", strconv.FormatBool(merge))

	// One read shape either way: borrow — the whole chunk if the merge rule
	// says so, else each file's range — copy the file out (the batch
	// contract hands owned slices to the caller), release. Nothing
	// chunk-sized is allocated per merge.
	if merge {
		blob, release, err := objstore.GetPooled(s.objects, key)
		if err != nil {
			return fmt.Errorf("server: chunk read %s: %w", idStr, err)
		}
		defer release()
		s.Exec.Stats.ChunkReads.Add(1)
		s.Exec.Stats.BackendBytes.Add(uint64(len(blob)))
		for _, r := range grp {
			start := uint64(hl) + r.fr.Offset
			if start > uint64(len(blob)) || r.fr.Length > uint64(len(blob))-start {
				return fmt.Errorf("server: file %q: %w", r.fr.FullName, errOutOfChunk)
			}
			emit(r.idx, append([]byte(nil), blob[start:start+r.fr.Length]...))
		}
		return nil
	}

	for _, r := range grp {
		b, release, err := s.borrowFile(key, hl, r.fr)
		if err != nil {
			return err
		}
		s.Exec.Stats.RangeReads.Add(1)
		s.Exec.Stats.BackendBytes.Add(uint64(len(b)))
		emit(r.idx, append([]byte(nil), b...))
		release()
	}
	return nil
}
