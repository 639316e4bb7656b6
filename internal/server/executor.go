package server

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"diesel/internal/meta"
	"diesel/internal/objstore"
	"diesel/internal/tracing"
	"diesel/internal/wire"
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
	ChunkReads  atomic.Uint64 // whole-chunk fetches
	RangeReads  atomic.Uint64 // per-file range fetches
	FilesServed atomic.Uint64
}

// GetFilesContext serves a batch of file reads. The result is parallel to
// paths; entries for missing files are nil, and a file whose chunk has not
// committed is missing, as one with no record is. The executor sorts the
// requests by chunk and offset once, takes each chunk's run of them as a
// group, and chooses per group between one whole-chunk read and per-file
// range reads. The request context is threaded through the batch stat and
// each group read, so a sampled trace decomposes one batch into its
// metadata fan-out and its per-chunk backend reads.
//
// Every file is copied once, into one buffer sized from the file records:
// the files are capped windows into it (cap == len), so retaining one
// retains the batch.
func (s *Server) GetFilesContext(ctx context.Context, dataset string, paths []string) ([][]byte, error) {
	files, _, err := s.getFiles(ctx, dataset, paths)
	return files, err
}

// getFiles is GetFilesContext that also returns the buffer the files are
// windows into: the present files back to back, in request order.
func (s *Server) getFiles(ctx context.Context, dataset string, paths []string) ([][]byte, []byte, error) {
	out := make([][]byte, len(paths))
	if len(paths) == 0 {
		return out, nil, nil
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
		return nil, nil, fmt.Errorf("server: batch stat: %w", err)
	}

	reqs := make([]fileReq, 0, len(recs))
	var total uint64
	for i, b := range recs {
		if b == nil {
			continue // missing file → nil output
		}
		fr, err := meta.DecodeFileRecord(b)
		if err != nil {
			return nil, nil, err
		}
		// The commit check, before the file takes room in the buffer; a
		// file of the chunk the file before it is in takes that one's shape.
		var shape chunkShape
		if n := len(reqs); n > 0 && reqs[n-1].fr.ChunkID == fr.ChunkID {
			shape = reqs[n-1].shape
		} else if shape, err = s.shapeOf(ctx, dataset, fr.ChunkID); errors.Is(err, ErrNoSuchFile) {
			continue // its chunk has not committed: missing too
		} else if err != nil {
			return nil, nil, err
		}
		if fr.Length > wire.MaxFrame || total+fr.Length > wire.MaxFrame {
			return nil, nil, fmt.Errorf("server: batch of %d files exceeds %d bytes", len(paths), wire.MaxFrame)
		}
		reqs = append(reqs, fileReq{idx: i, fr: fr, shape: shape})
		total += fr.Length
	}
	buf := make([]byte, total)
	var off uint64
	for _, r := range reqs {
		out[r.idx] = buf[off : off+r.fr.Length : off+r.fr.Length]
		off += r.fr.Length
	}

	// One sort, by chunk (write order, so backend access is
	// sequential-friendly) then offset: each chunk's requests are a run.
	slices.SortFunc(reqs, func(a, b fileReq) int {
		if a.fr.ChunkID != b.fr.ChunkID {
			if a.fr.ChunkID.Less(b.fr.ChunkID) {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.fr.Offset, b.fr.Offset)
	})

	// Every group but the last runs beside this goroutine, which serves the
	// last one itself: a batch that falls in one chunk starts no goroutine.
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		sem      chan struct{}
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for rest := reqs; len(rest) > 0; {
		n := 1
		for n < len(rest) && rest[n].fr.ChunkID == rest[0].fr.ChunkID {
			n++
		}
		grp := rest[:n]
		if rest = rest[n:]; len(rest) == 0 {
			if err := s.serveGroup(ctx, grp, out); err != nil {
				fail(err)
			}
			break
		}
		if sem == nil {
			sem = make(chan struct{}, execParallelism-1)
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.serveGroup(ctx, grp, out); err != nil {
				fail(err)
			}
			<-sem
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, nil, firstErr
	}
	s.Exec.Stats.FilesServed.Add(uint64(len(paths)))
	return out, buf, nil
}

// fileReq pairs one requested path's position with its metadata record
// and its chunk's shape.
type fileReq struct {
	idx   int // position in the request batch
	fr    meta.FileRecord
	shape chunkShape
}

// serveGroup serves all requests that fall in one chunk, copying each
// file into its window out[idx].
func (s *Server) serveGroup(ctx context.Context, grp []fileReq, out [][]byte) (err error) {
	id := grp[0].fr.ChunkID
	sp := tracing.ChildOf(ctx, "exec.group")
	if sp != nil {
		sp.SetAttr("chunk", id.String())
		sp.SetAttr("files", strconv.Itoa(len(grp)))
		ctx = tracing.ContextWith(ctx, sp)
		defer func() { sp.SetError(err); sp.End() }()
	}

	var wantBytes uint64
	for _, r := range grp {
		wantBytes += r.fr.Length
	}

	shape := grp[0].shape
	merge := s.Exec.Merge && (len(grp) >= s.Exec.minFiles ||
		(shape.size > 0 && float64(wantBytes) >= s.Exec.minSpan*float64(shape.size)))
	sp.SetAttr("merge", strconv.FormatBool(merge))

	// One read shape either way: borrow — the whole chunk if the merge rule
	// says so, else each file's range — copy the file into its window,
	// release. Nothing chunk-sized is allocated per merge.
	if merge {
		blob, release, err := objstore.GetPooled(s.objects, shape.key)
		if err != nil {
			return fmt.Errorf("server: chunk read %s: %w", id, err)
		}
		defer release()
		s.Exec.Stats.ChunkReads.Add(1)
		for _, r := range grp {
			start := uint64(shape.headerLen) + r.fr.Offset
			if start > uint64(len(blob)) || r.fr.Length > uint64(len(blob))-start {
				return fmt.Errorf("server: file %q: %w", r.fr.FullName, errOutOfChunk)
			}
			copy(out[r.idx], blob[start:])
		}
		return nil
	}

	for _, r := range grp {
		b, release, err := s.borrowFile(shape, r.fr)
		if err != nil {
			return err
		}
		s.Exec.Stats.RangeReads.Add(1)
		copy(out[r.idx], b)
		release()
	}
	return nil
}
