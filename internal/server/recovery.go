package server

import (
	"errors"
	"fmt"

	"diesel/internal/chunk"
	"diesel/internal/meta"
)

// RecoveryStats summarises a metadata recovery run.
type RecoveryStats struct {
	ChunksScanned int
	ChunksSkipped int // older than the requested timestamp (scenario a)
	PairsWritten  int
}

// RecoverMetadata rebuilds the key-value metadata of a dataset by scanning
// its self-contained chunks in object storage, implementing §4.1.2:
//
//   - Scenario (a), partial loss: pass fromSec > 0 to re-derive only the
//     pairs of chunks written at or after that timestamp.
//   - Scenario (b), total loss: pass fromSec == 0 to rescan everything.
//
// Chunk object keys embed the order-preserving chunk ID, so the object
// store's sorted listing visits chunks in write order (a path written twice
// ends up naming its later chunk), and the timestamp filter needs only the
// ID — no chunk data is read for skipped chunks. Both scenarios end with one
// stamp of the dataset record, after the last pairs, and only when a chunk
// was scanned: a name with no chunks stays a dataset that does not exist.
func (s *Server) RecoverMetadata(dataset string, fromSec uint32) (RecoveryStats, error) {
	var st RecoveryStats
	keys, err := s.objects.List(dataset + "/")
	if err != nil {
		return st, fmt.Errorf("server: recovery list: %w", err)
	}
	for _, key := range keys {
		idStr := key[len(dataset)+1:]
		id, err := chunk.ParseID(idStr)
		if err != nil {
			continue // foreign object in the namespace; not a chunk
		}
		if id.Timestamp() < fromSec {
			st.ChunksSkipped++
			continue
		}
		h, size, err := s.readHeader(key)
		if err != nil {
			return st, fmt.Errorf("server: recover chunk %s: %w", idStr, err)
		}
		pairs := meta.PairsForChunk(dataset, h, size)
		if err := s.kv.MSet(toKVStore(pairs)); err != nil {
			return st, fmt.Errorf("server: recover mset: %w", err)
		}
		st.ChunksScanned++
		st.PairsWritten += len(pairs)
	}
	if st.ChunksScanned == 0 {
		return st, nil
	}
	return st, s.stamp(dataset)
}

// readHeader fetches just enough of a chunk object to decode its header,
// growing the read geometrically; most headers fit in the first 64 KiB,
// so recovery costs ~1 range read per chunk instead of a full chunk read.
func (s *Server) readHeader(key string) (*chunk.Header, uint64, error) {
	size, err := s.objects.Size(key)
	if err != nil {
		return nil, 0, err
	}
	for n := int64(64 << 10); ; n *= 4 {
		if n > size {
			n = size
		}
		b, err := s.objects.GetRange(key, 0, n)
		if err != nil {
			return nil, 0, err
		}
		h, _, err := chunk.ParseHeader(b)
		if err == nil {
			return h, uint64(size), nil
		}
		if !errors.Is(err, chunk.ErrTruncated) || n == size {
			return nil, 0, err
		}
	}
}
