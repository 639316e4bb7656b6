package meta

import "testing"

// FuzzDecodeSnapshot hardens the snapshot decoder: clients load snapshot
// bytes from disk or a possibly-truncated download, so the decoder must
// never panic, and anything it accepts must support lookups without
// out-of-range chunk references.
func FuzzDecodeSnapshot(f *testing.F) {
	enc := buildSampleSnapshot().Encode()
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	flip := append([]byte(nil), enc...)
	flip[8] ^= 0xFF
	f.Add(flip)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		for i := range s.NumFiles() {
			m := s.FileMetaAt(i)
			if m.ChunkIdx < 0 || m.ChunkIdx >= len(s.Chunks) {
				t.Fatalf("accepted snapshot has out-of-range chunk index %d", m.ChunkIdx)
			}
			if _, err := s.Stat(s.FileName(i)); err != nil {
				t.Fatalf("accepted snapshot cannot stat its own file %d: %v", i, err)
			}
		}
		s.Walk("", func(string, FileMeta) bool { return true })
	})
}

// FuzzDecodeRecords covers the three KV record decoders on arbitrary
// input: never panic.
func FuzzDecodeRecords(f *testing.F) {
	dr := DatasetRecord{UpdatedNS: 1}
	fr := FileRecord{Index: 1, Offset: 2, Length: 3, FullName: "a/b"}
	cr := ChunkRecord{UpdatedNS: 1, Size: 2, HeaderLen: 3, NumFiles: 4}
	f.Add(dr.Encode())
	f.Add(fr.Encode())
	f.Add(cr.Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		DecodeDatasetRecord(data)
		DecodeFileRecord(data)
		DecodeChunkRecord(data)
	})
}
