package server

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"diesel/internal/chunk"
	"diesel/internal/meta"
)

func TestRecoveryFullWipe(t *testing.T) {
	s, _, kv, gen := testStack()
	files := writeFiles(t, s, gen, "ds", 80, 256, 2048)

	before, _ := kv.DBSize()
	kv.FlushAll() // scenario (b): total metadata loss
	if n, _ := kv.DBSize(); n != 0 {
		t.Fatal("flush failed")
	}
	if _, err := getFile(s, "ds", "class00/img00000.jpg"); err == nil {
		t.Fatal("read succeeded with no metadata")
	}

	st, err := s.RecoverMetadata("ds", 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.ChunksScanned == 0 || st.ChunksSkipped != 0 {
		t.Errorf("stats = %+v", st)
	}
	after, _ := kv.DBSize()
	if after != before {
		t.Errorf("recovered %d keys, originally %d", after, before)
	}
	for name, want := range files {
		got, err := getFile(s, "ds", name)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("post-recovery read %q: %v", name, err)
		}
	}
	snap := snapshotOf(t, s, "ds")
	if snap.NumFiles() != 80 || snap.TotalBytes() != 80*256 {
		t.Errorf("rebuilt snapshot = %v", snap)
	}
}

func TestRecoveryFromTimestamp(t *testing.T) {
	s, _, kv, _ := testStack()
	// Two write generations with distinct ID timestamps.
	sec := uint32(100)
	gen := chunk.NewIDGeneratorAt([6]byte{9}, 1, func() uint32 { return sec })
	writeFiles(t, s, gen, "ds", 20, 128, 1024)
	sec = 200
	b := chunk.NewBuilder(0, gen, s.nowNS)
	b.Add("late/file1", []byte("recent-1"))
	b.Add("late/file2", []byte("recent-2"))
	_, enc, _ := b.Seal()
	if _, err := s.Ingest("ds", enc); err != nil {
		t.Fatal(err)
	}

	// Scenario (a): lose only the recent records.
	for _, key := range []string{
		meta.FileKey("ds", "late/file1"),
		meta.FileKey("ds", "late/file2"),
	} {
		if _, err := kv.Del(key); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := getFile(s, "ds", "late/file1"); err == nil {
		t.Fatal("lost record still served")
	}

	st, err := s.RecoverMetadata("ds", 150)
	if err != nil {
		t.Fatal(err)
	}
	if st.ChunksScanned != 1 {
		t.Errorf("scanned %d chunks, want 1 (only the recent one)", st.ChunksScanned)
	}
	if st.ChunksSkipped == 0 {
		t.Error("no old chunks skipped")
	}
	got, err := getFile(s, "ds", "late/file1")
	if err != nil || string(got) != "recent-1" {
		t.Fatalf("recovered read = %q, %v", got, err)
	}
	// Old files were unaffected throughout.
	if _, err := getFile(s, "ds", "class00/img00000.jpg"); err != nil {
		t.Errorf("old file broken by partial recovery: %v", err)
	}
	if n := snapshotOf(t, s, "ds").NumFiles(); n != 22 {
		t.Errorf("files after recovery = %d, want 22", n)
	}
}

func TestRecoveryIgnoresForeignObjects(t *testing.T) {
	s, obj, kv, gen := testStack()
	writeFiles(t, s, gen, "ds", 10, 64, 512)
	obj.Put("ds/not-a-chunk", []byte("junk"))
	kv.FlushAll()
	if _, err := s.RecoverMetadata("ds", 0); err != nil {
		t.Fatal(err)
	}
	if n := snapshotOf(t, s, "ds").NumFiles(); n != 10 {
		t.Errorf("files after recovery = %d", n)
	}
}

// TestRecoveryEmptyDataset: recovering a name with no chunks scans nothing
// and creates nothing — a typo does not become a dataset.
func TestRecoveryEmptyDataset(t *testing.T) {
	s, _, _, _ := testStack()
	st, err := s.RecoverMetadata("empty", 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.ChunksScanned != 0 {
		t.Errorf("scanned %d chunks in empty dataset", st.ChunksScanned)
	}
	if _, err := s.datasetRecord("empty"); !errors.Is(err, ErrNoSuchDataset) {
		t.Errorf("record after recovering nothing: %v", err)
	}
	if _, err := s.BuildSnapshot("empty"); !errors.Is(err, ErrNoSuchDataset) {
		t.Errorf("snapshot after recovering nothing: %v", err)
	}
}

func TestPurgeReclaimsHoles(t *testing.T) {
	s, obj, _, gen := testStack()
	files := writeFiles(t, s, gen, "ds", 40, 200, 1000)

	// Delete every file of class03 and class07.
	var deleted []string
	for name := range files {
		if name[:7] == "class03" || name[:7] == "class07" {
			if err := s.deleteFile("ds", name); err != nil {
				t.Fatal(err)
			}
			deleted = append(deleted, name)
		}
	}
	if len(deleted) != 8 {
		t.Fatalf("deleted %d files", len(deleted))
	}

	objectsBefore := obj.Len()
	st, err := s.purge("ds", gen)
	if err != nil {
		t.Fatal(err)
	}
	if st.ChunksRewritten == 0 {
		t.Fatal("purge rewrote nothing")
	}
	if st.BytesReclaimed != uint64(len(deleted)*200) {
		t.Errorf("BytesReclaimed = %d, want %d", st.BytesReclaimed, len(deleted)*200)
	}
	// Live files intact.
	for name, want := range files {
		isDeleted := name[:7] == "class03" || name[:7] == "class07"
		got, err := getFile(s, "ds", name)
		if isDeleted {
			if !errors.Is(err, ErrNoSuchFile) {
				t.Fatalf("purged file %q: %v", name, err)
			}
			continue
		}
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("live file %q after purge: %v", name, err)
		}
	}
	if n := snapshotOf(t, s, "ds").NumFiles(); n != 40-len(deleted) {
		t.Errorf("files after purge = %d", n)
	}
	// purge should not grow the object count (holes merged).
	if obj.Len() > objectsBefore {
		t.Errorf("objects grew: %d -> %d", objectsBefore, obj.Len())
	}
}

// TestPurgeMakesDeletesDurable: after a purge, even a total KV wipe and
// rescan must not resurrect deleted files.
func TestPurgeMakesDeletesDurable(t *testing.T) {
	s, _, kv, gen := testStack()
	writeFiles(t, s, gen, "ds", 20, 100, 500)
	victim := "class02/img00002.jpg"
	if err := s.deleteFile("ds", victim); err != nil {
		t.Fatal(err)
	}
	if _, err := s.purge("ds", gen); err != nil {
		t.Fatal(err)
	}
	kv.FlushAll()
	if _, err := s.RecoverMetadata("ds", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := getFile(s, "ds", victim); !errors.Is(err, ErrNoSuchFile) {
		t.Errorf("deleted file resurrected by recovery: %v", err)
	}
	if n := snapshotOf(t, s, "ds").NumFiles(); n != 19 {
		t.Errorf("files after purge and recovery = %d", n)
	}
}

// TestPurgeAllocatesWhatItCarries: a purge that carries two small files
// builds a chunk of their size. A builder presized for a whole default
// chunk allocated 5 MiB here.
func TestPurgeAllocatesWhatItCarries(t *testing.T) {
	s, _, _, gen := testStack()
	files := writeFiles(t, s, gen, "ds", 4, 80, 1<<20)
	for _, name := range []string{"class00/img00000.jpg", "class01/img00001.jpg"} {
		if err := s.deleteFile("ds", name); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err := s.purge("ds", gen)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if st.FilesCarried != 2 || st.ChunksRewritten != 1 {
		t.Fatalf("purge carried %d files out of %d chunks, want 2 out of 1", st.FilesCarried, st.ChunksRewritten)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 256<<10 {
		t.Errorf("a purge carrying two 80-byte files allocated %d bytes", n)
	}
	for _, name := range []string{"class02/img00002.jpg", "class03/img00003.jpg"} {
		if got, err := getFile(s, "ds", name); err != nil || !bytes.Equal(got, files[name]) {
			t.Errorf("%s after purge: %v", name, err)
		}
	}
}

func TestPurgeNoHolesIsNoop(t *testing.T) {
	s, obj, _, gen := testStack()
	writeFiles(t, s, gen, "ds", 10, 100, 500)
	before := obj.Len()
	st, err := s.purge("ds", gen)
	if err != nil {
		t.Fatal(err)
	}
	if st.ChunksRewritten != 0 || obj.Len() != before {
		t.Errorf("no-op purge changed state: %+v", st)
	}
}

func TestDeleteDataset(t *testing.T) {
	s, obj, kv, gen := testStack()
	writeFiles(t, s, gen, "ds", 25, 64, 512)
	writeFiles(t, s, gen, "other", 5, 64, 512)

	if err := s.DeleteDataset("ds"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.datasetRecord("ds"); !errors.Is(err, ErrNoSuchDataset) {
		t.Errorf("dataset record survived: %v", err)
	}
	keys, _ := obj.List("ds/")
	if len(keys) != 0 {
		t.Errorf("%d chunk objects survived", len(keys))
	}
	// The other dataset is untouched.
	if _, err := getFile(s, "other", "class00/img00000.jpg"); err != nil {
		t.Errorf("other dataset damaged: %v", err)
	}
	n, _ := kv.DBSize()
	if n == 0 {
		t.Error("other dataset's metadata was wiped too")
	}
}
