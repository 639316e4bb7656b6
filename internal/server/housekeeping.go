package server

import (
	"fmt"

	"diesel/internal/chunk"
	"diesel/internal/meta"
)

// PurgeStats summarises a purge run.
type PurgeStats struct {
	ChunksRewritten int
	ChunksDeleted   int // rewritten chunks whose old object was removed
	BytesReclaimed  uint64
	FilesCarried    int // live files moved into new chunks
}

// purge is the housekeeping function that "merges chunks with holes caused
// by file modification and deletion" (§4.1.1, DL_purge in §5). Holed
// chunks are read back, their live files are re-packed into fresh chunks
// through the normal ingest path, and the old chunk objects and records are
// removed.
//
// Whether an entry is live is the file records' to say, as they alone own
// a file's location. A chunk is holed when it holds fewer of the committed
// view's files than it has entries — a file deleted, or written again into
// a later chunk — and an entry is carried only while its path's record
// still names this chunk and index, checked again with one MGet per chunk
// when it is read.
// So a path written again since or deleted since is left behind, never
// brought back.
//
// purge also makes deletions durable against total metadata loss: before
// a purge, a deletion exists only in the KV database; after it, the
// surviving chunks' headers are authoritative again.
func (s *Server) purge(dataset string, gen *chunk.IDGenerator) (PurgeStats, error) {
	var st PurgeStats
	holed, carry, err := s.holedChunks(dataset)
	if err != nil {
		return st, err
	}

	// A builder presizes its buffer for a whole chunk of its target, so a
	// purge that carries less than a chunk seals at what it carries. A file
	// the view did not count (written back into a holed chunk since) only
	// seals a chunk sooner.
	builder := chunk.NewBuilder(int(min(carry, chunk.DefaultTargetSize)), gen, s.nowNS)
	flush := func() error {
		if builder.Count() == 0 {
			return nil
		}
		_, enc, err := builder.Seal()
		if err != nil {
			return err
		}
		if _, err := s.Ingest(dataset, enc); err != nil {
			return err
		}
		return nil
	}

	// Pass 1: re-pack every live file of every holed chunk into fresh
	// chunks via the normal ingest path. Old chunks stay readable until the
	// new ones are durably ingested, so there is no window in which a file
	// record points at a missing object.
	for _, id := range holed {
		idStr := id.String()
		blob, err := s.objects.Get(ObjectKey(dataset, idStr))
		if err != nil {
			return st, fmt.Errorf("server: purge read %s: %w", idStr, err)
		}
		ck, err := chunk.Parse(blob)
		if err != nil {
			return st, fmt.Errorf("server: purge parse %s: %w", idStr, err)
		}
		live, err := s.liveEntries(dataset, ck.Header)
		if err != nil {
			return st, fmt.Errorf("server: purge %s: %w", idStr, err)
		}
		for i, e := range ck.Header.Entries {
			if !live[i] {
				st.BytesReclaimed += e.Length
				continue
			}
			data, err := ck.FileAt(i)
			if err != nil {
				return st, err
			}
			full, err := builder.Add(e.Name, data)
			if err != nil {
				return st, err
			}
			st.FilesCarried++
			if full {
				if err := flush(); err != nil {
					return st, err
				}
			}
		}
	}
	if err := flush(); err != nil {
		return st, err
	}

	// Pass 2: retire the old chunks. Every live file record was rewritten
	// by ingest to point at a new chunk, so the old objects and records
	// are unreferenced.
	for _, id := range holed {
		idStr := id.String()
		if err := s.objects.Delete(ObjectKey(dataset, idStr)); err != nil {
			return st, err
		}
		if _, err := s.kv.Del(meta.ChunkKey(dataset, idStr)); err != nil {
			return st, err
		}
		s.forgetShape(dataset, id)
		st.ChunksRewritten++
		st.ChunksDeleted++
	}
	if st.ChunksRewritten > 0 {
		return st, s.stamp(dataset)
	}
	return st, nil
}

// holedChunks returns, in write order, the chunks of dataset that hold
// fewer of the committed view's files than they have entries, and the
// bytes of the view's files in them: what purge will carry.
func (s *Server) holedChunks(dataset string) (holed []chunk.ID, carry uint64, err error) {
	var ids []chunk.ID
	var holes []int64 // per chunk: its entries less the view's files in it
	var live []uint64 // per chunk: the bytes of the view's files in it
	err = s.view(dataset, func(id chunk.ID, cr meta.ChunkRecord) {
		ids = append(ids, id)
		holes = append(holes, int64(cr.NumFiles))
		live = append(live, 0)
	}, func(ci int, fr meta.FileRecord) {
		holes[ci]--
		live[ci] += fr.Length
	})
	if err != nil {
		return nil, 0, err
	}
	for ci, id := range ids {
		if holes[ci] > 0 {
			holed = append(holed, id)
			carry += live[ci]
		}
	}
	return holed, carry, nil
}

// liveEntries reports, per entry of chunk h, whether its path's file record
// still names h and that entry: one MGet for the whole chunk.
func (s *Server) liveEntries(dataset string, h *chunk.Header) ([]bool, error) {
	keys := make([]string, len(h.Entries))
	for i, e := range h.Entries {
		keys[i] = meta.FileKey(dataset, meta.CleanPath(e.Name))
	}
	vals, err := s.kv.MGet(keys)
	if err != nil {
		return nil, err
	}
	live := make([]bool, len(vals))
	for i, v := range vals {
		if v == nil {
			continue
		}
		fr, err := meta.DecodeFileRecord(v)
		if err != nil {
			return nil, err
		}
		live[i] = fr.ChunkID == h.ID && fr.Index == uint32(i)
	}
	return live, nil
}

// DeleteDataset removes a dataset entirely: every chunk object and every
// metadata record (DL_delete_dataset in §5).
func (s *Server) DeleteDataset(dataset string) error {
	keys, err := s.objects.List(dataset + "/")
	if err != nil {
		return err
	}
	for _, k := range keys {
		if err := s.objects.Delete(k); err != nil {
			return err
		}
	}
	for _, prefix := range []string{meta.ChunkScanPrefix(dataset), meta.FileDatasetPrefix(dataset)} {
		kvs, err := s.kv.ScanPrefix(prefix)
		if err != nil {
			return err
		}
		for _, kv := range kvs {
			if _, err := s.kv.Del(kv.Key); err != nil {
				return err
			}
		}
	}
	// Only now: with the chunk records gone no reader can cache one again.
	s.forgetDataset(dataset)
	_, err = s.kv.Del(meta.DatasetKey(dataset))
	return err
}
