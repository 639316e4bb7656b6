package meta

import (
	"fmt"

	"diesel/internal/chunk"
	"diesel/internal/wire"
)

// DatasetRecord is a dataset's entry in the KV database: only the time of
// its last mutation. Clients compare UpdatedNS against their local
// snapshot's timestamp to decide whether the snapshot is stale (§4.1.3).
// Counts are not kept here: a snapshot derives them from the chunk and file
// records it is built from, which are their only owners.
type DatasetRecord struct {
	UpdatedNS int64 // time of the last mutation to the dataset
}

// Encode serialises the record.
func (r *DatasetRecord) Encode() []byte {
	e := wire.NewEncoder(8)
	e.Int64(r.UpdatedNS)
	return e.Bytes()
}

// DecodeDatasetRecord parses a record encoded by Encode.
func DecodeDatasetRecord(b []byte) (DatasetRecord, error) {
	d := wire.NewDecoder(b)
	r := DatasetRecord{UpdatedNS: d.Int64()}
	return r, d.Err()
}

// ChunkRecord is the per-chunk metadata: what reading the chunk needs
// (its size and where its payload begins) and how many entries it holds,
// all fixed when the chunk is sealed. Ingest and recovery write it once
// and nothing rewrites it. Figure 5b's chunk record also carries an update
// timestamp and a deletion bitmap; here nothing would read the first, and
// the second is the file records' to say: an entry is live exactly while
// its path's record names this chunk and that entry.
type ChunkRecord struct {
	Size      uint64 // encoded chunk size in the object store
	HeaderLen uint32 // serialised header length; payload begins here
	NumFiles  uint32
}

// chunkRecordLen is the length of an encoded ChunkRecord.
const chunkRecordLen = 8 + 4 + 4

// Encode serialises the record.
func (r *ChunkRecord) Encode() []byte {
	e := wire.NewEncoder(chunkRecordLen)
	e.Uint64(r.Size)
	e.Uint32(r.HeaderLen)
	e.Uint32(r.NumFiles)
	return e.Bytes()
}

// DecodeChunkRecord parses a record encoded by Encode. A value of any
// other length is an error, so a record in an older layout fails instead
// of decoding into wrong numbers.
func DecodeChunkRecord(b []byte) (ChunkRecord, error) {
	if len(b) != chunkRecordLen {
		return ChunkRecord{}, fmt.Errorf("meta: chunk record is %d bytes, want %d", len(b), chunkRecordLen)
	}
	d := wire.NewDecoder(b)
	r := ChunkRecord{
		Size:      d.Uint64(),
		HeaderLen: d.Uint32(),
		NumFiles:  d.Uint32(),
	}
	return r, d.Err()
}

// FileRecord locates one file: the chunk holding it, the offset of its
// bytes inside the chunk payload, its length, and its full dataset-relative
// name (kept so the folder hierarchy can be rebuilt from records alone).
type FileRecord struct {
	ChunkID  chunk.ID
	Index    uint32 // entry index within the chunk, for purge's liveness check
	Offset   uint64
	Length   uint64
	FullName string
}

// Encode serialises the record.
func (r *FileRecord) Encode() []byte {
	e := wire.NewEncoder(48 + len(r.FullName))
	e.Bytes32(r.ChunkID[:])
	e.Uint32(r.Index)
	e.Uint64(r.Offset)
	e.Uint64(r.Length)
	e.String(r.FullName)
	return e.Bytes()
}

// DecodeFileRecord parses a record encoded by Encode.
func DecodeFileRecord(b []byte) (FileRecord, error) {
	d := wire.NewDecoder(b)
	var r FileRecord
	copy(r.ChunkID[:], d.Bytes32())
	r.Index = d.Uint32()
	r.Offset = d.Uint64()
	r.Length = d.Uint64()
	r.FullName = d.String()
	return r, d.Err()
}

// PairsForChunk converts one chunk header into the full set of key-value
// pairs the DIESEL server writes on ingest — and equally, the pairs a
// recovery scan re-derives from stored chunks. It returns the chunk record
// pair first, then one file record pair per entry; the server writes the
// first after the rest, as the chunk's commit record.
func PairsForChunk(dataset string, h *chunk.Header, encodedSize uint64) []KV {
	idStr := h.ID.String()
	pairs := make([]KV, 0, len(h.Entries)+1)

	cr := ChunkRecord{
		Size:      encodedSize,
		HeaderLen: uint32(h.EncodedHeaderLen()),
		NumFiles:  uint32(len(h.Entries)),
	}
	pairs = append(pairs, KV{Key: ChunkKey(dataset, idStr), Value: cr.Encode()})

	for i, fe := range h.Entries {
		fr := FileRecord{
			ChunkID:  h.ID,
			Index:    uint32(i),
			Offset:   fe.Offset,
			Length:   fe.Length,
			FullName: CleanPath(fe.Name),
		}
		pairs = append(pairs, KV{Key: FileKey(dataset, fr.FullName), Value: fr.Encode()})
	}
	return pairs
}

// KV mirrors kvstore.KV without importing it, keeping meta free of
// networking dependencies; the server layer converts between the two.
type KV struct {
	Key   string
	Value []byte
}
