package meta

import (
	"strings"
	"testing"
	"testing/quick"

	"diesel/internal/chunk"
	"diesel/internal/wire"
)

func TestDatasetRecordRoundTrip(t *testing.T) {
	f := func(up int64) bool {
		r := DatasetRecord{UpdatedNS: up}
		got, err := DecodeDatasetRecord(r.Encode())
		return err == nil && got == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestChunkRecordRoundTrip(t *testing.T) {
	r := ChunkRecord{Size: 4 << 20, HeaderLen: 321, NumFiles: 10}
	got, err := DecodeChunkRecord(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Errorf("got %+v, want %+v", got, r)
	}
}

// TestChunkRecordOlderLayoutRejected: a chunk record in the older layout —
// update time, size, header length, file count, deletion bitmap — fails
// to decode instead of yielding a wrong header length.
func TestChunkRecordOlderLayoutRejected(t *testing.T) {
	e := wire.NewEncoder(64)
	e.Int64(99)       // update time
	e.Uint64(4 << 20) // size
	e.Uint32(321)     // header length
	e.Uint32(10)      // file count
	e.Bytes32([]byte{0x88, 0})
	if cr, err := DecodeChunkRecord(e.Bytes()); err == nil {
		t.Errorf("an older chunk record decoded as %+v", cr)
	}
	if _, err := DecodeChunkRecord(nil); err == nil {
		t.Error("an empty chunk record decoded")
	}
}

func TestFileRecordRoundTrip(t *testing.T) {
	r := FileRecord{ChunkID: mkID(9), Index: 5, Offset: 1234, Length: 5678, FullName: "a/b/c.jpg"}
	got, err := DecodeFileRecord(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Errorf("got %+v, want %+v", got, r)
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	r := FileRecord{ChunkID: mkID(1), FullName: "x"}
	enc := r.Encode()
	for cut := 0; cut < len(enc); cut += 3 {
		if _, err := DecodeFileRecord(enc[:cut]); err == nil && cut < len(enc)-1 {
			// Some prefixes may decode to a zero-suffix record only if the
			// remaining fields are all optional — FileRecord's are not.
			t.Errorf("truncated record at %d decoded", cut)
		}
	}
}

func TestPairsForChunk(t *testing.T) {
	gen := chunk.NewIDGeneratorAt([6]byte{1}, 1, func() uint32 { return 10 })
	b := chunk.NewBuilder(0, gen, func() int64 { return 555 })
	b.Add("train/n01/a.jpg", []byte("aaa"))
	b.Add("train/n01/b.jpg", []byte("bbbb"))
	b.Add("val/c.jpg", []byte("c"))
	h, enc, err := b.Seal()
	if err != nil {
		t.Fatal(err)
	}

	pairs := PairsForChunk("imagenet", h, uint64(len(enc)))

	var chunkKeys, fileKeys []string
	for _, kv := range pairs {
		switch {
		case strings.HasPrefix(kv.Key, "ck|"):
			chunkKeys = append(chunkKeys, kv.Key)
		case strings.HasPrefix(kv.Key, "f|"):
			fileKeys = append(fileKeys, kv.Key)
		default:
			t.Errorf("unexpected key %q", kv.Key)
		}
	}
	if len(chunkKeys) != 1 || pairs[0].Key != ChunkKey("imagenet", h.ID.String()) {
		t.Errorf("chunk keys = %d, first pair %q; want one, first", len(chunkKeys), pairs[0].Key)
	}
	if len(fileKeys) != 3 {
		t.Errorf("file keys = %d", len(fileKeys))
	}
	if len(pairs) != 4 {
		t.Errorf("%d pairs, want the chunk record and 3 file records: directories have no records", len(pairs))
	}

	// The chunk record decodes back to the header's facts.
	for _, kv := range pairs {
		if kv.Key == ChunkKey("imagenet", h.ID.String()) {
			cr, err := DecodeChunkRecord(kv.Value)
			if err != nil {
				t.Fatal(err)
			}
			if cr.NumFiles != 3 || cr.Size != uint64(len(enc)) || cr.HeaderLen != uint32(h.EncodedHeaderLen()) {
				t.Errorf("chunk record = %+v", cr)
			}
		}
	}

	// A file record resolves by the same key the client would compute.
	found := false
	for _, kv := range pairs {
		if kv.Key == FileKey("imagenet", "train/n01/b.jpg") {
			found = true
			fr, err := DecodeFileRecord(kv.Value)
			if err != nil {
				t.Fatal(err)
			}
			if fr.Length != 4 || fr.ChunkID != h.ID || fr.FullName != "train/n01/b.jpg" {
				t.Errorf("file record = %+v", fr)
			}
		}
	}
	if !found {
		t.Error("file key for train/n01/b.jpg missing")
	}
}
