package meta

import (
	"strings"
	"testing"
	"testing/quick"

	"diesel/internal/chunk"
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
	bm := chunk.NewBitmap(10)
	bm.Set(3)
	bm.Set(7)
	r := ChunkRecord{UpdatedNS: 99, Size: 4 << 20, NumFiles: 10, Deleted: bm}
	got, err := DecodeChunkRecord(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.UpdatedNS != 99 || got.Size != 4<<20 || got.NumFiles != 10 || got.Deleted.Count() != 2 {
		t.Errorf("got %+v", got)
	}
	if !got.Deleted.Get(3) || !got.Deleted.Get(7) || got.Deleted.Get(4) {
		t.Error("bitmap mismatch")
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

	var chunkKeys, fileKeys, dirKeys []string
	for _, kv := range pairs {
		switch {
		case strings.HasPrefix(kv.Key, "ck|"):
			chunkKeys = append(chunkKeys, kv.Key)
		case strings.HasPrefix(kv.Key, "f|"):
			fileKeys = append(fileKeys, kv.Key)
		case strings.HasPrefix(kv.Key, "d|"):
			dirKeys = append(dirKeys, kv.Key)
		default:
			t.Errorf("unexpected key %q", kv.Key)
		}
	}
	if len(chunkKeys) != 1 {
		t.Errorf("chunk keys = %d", len(chunkKeys))
	}
	if len(fileKeys) != 3 {
		t.Errorf("file keys = %d", len(fileKeys))
	}
	// Directories: train, train/n01, val → 3 entries.
	if len(dirKeys) != 3 {
		t.Errorf("dir keys = %d: %v", len(dirKeys), dirKeys)
	}

	// The chunk record decodes back to the header's facts.
	for _, kv := range pairs {
		if kv.Key == ChunkKey("imagenet", h.ID.String()) {
			cr, err := DecodeChunkRecord(kv.Value)
			if err != nil {
				t.Fatal(err)
			}
			if cr.NumFiles != 3 || cr.Size != uint64(len(enc)) || cr.UpdatedNS != 555 {
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

func TestPairsForChunkSkipsDeleted(t *testing.T) {
	gen := chunk.NewIDGeneratorAt([6]byte{1}, 1, func() uint32 { return 10 })
	b := chunk.NewBuilder(0, gen, func() int64 { return 1 })
	b.Add("a", []byte("x"))
	b.Add("b", []byte("y"))
	h, enc, _ := b.Seal()
	h.Deleted.Set(0) // delete "a"

	pairs := PairsForChunk("ds", h, uint64(len(enc)))
	for _, kv := range pairs {
		if kv.Key == FileKey("ds", "a") {
			t.Error("deleted file emitted a record")
		}
	}
	for _, kv := range pairs {
		if kv.Key == ChunkKey("ds", h.ID.String()) {
			cr, _ := DecodeChunkRecord(kv.Value)
			if cr.Deleted.Count() != 1 || !cr.Deleted.Get(0) {
				t.Errorf("deleted entries = %d", cr.Deleted.Count())
			}
		}
	}
}
