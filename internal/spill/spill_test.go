package spill

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func openT(t *testing.T, cfg Config) (*Log, Recovered) {
	t.Helper()
	l, rec, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l, rec
}

func payload(i, n int) []byte {
	b := make([]byte, n)
	for j := range b {
		b[j] = byte(i + j)
	}
	return b
}

func TestAddGetReadAt(t *testing.T) {
	l, rec := openT(t, Config{Dir: t.TempDir()})
	if rec.Entries != 0 || rec.truncated {
		t.Fatalf("fresh log recovered %+v", rec)
	}
	p := payload(1, 1000)
	if w, err := l.Add("k1", p); err != nil || !w {
		t.Fatalf("Add = %v, %v", w, err)
	}
	if w, err := l.Add("k1", payload(9, 5)); err != nil || w {
		t.Fatalf("duplicate Add = %v, %v; want false, nil", w, err)
	}
	got, err := l.Get("k1")
	if err != nil || !bytes.Equal(got, p) {
		t.Fatalf("Get = %d bytes, %v", len(got), err)
	}
	win, hits, err := l.ReadAt("k1", 100, 50)
	if err != nil || hits != 1 || !bytes.Equal(win, p[100:150]) {
		t.Fatalf("ReadAt = %v hits=%d err=%v", win[:4], hits, err)
	}
	if _, hits, _ = l.ReadAt("k1", 0, 10); hits != 2 {
		t.Fatalf("second ReadAt hits = %d, want 2", hits)
	}
	if _, err := l.Get("nope"); err != errNotFound {
		t.Fatalf("Get(missing) = %v, want errNotFound", err)
	}
	if _, _, err := l.ReadAt("k1", 900, 200); err == nil {
		t.Fatal("out-of-range ReadAt succeeded")
	}
	if got := l.Len(); got != 1 {
		t.Fatalf("Len = %d", got)
	}
	if got := l.Stats().LiveBytes; got != 1000 {
		t.Fatalf("LiveBytes = %d", got)
	}
}

func TestRewarmAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Config{Dir: dir})
	want := map[string][]byte{}
	for i := range 20 {
		k := fmt.Sprintf("ds\x00chunk%02d", i)
		p := payload(i, 512+i)
		want[k] = p
		if _, err := l.Add(k, p); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	l.Remove("ds\x00chunk07")
	delete(want, "ds\x00chunk07")
	l.Close()

	l2, rec := openT(t, Config{Dir: dir})
	if rec.Entries != len(want) {
		t.Fatalf("rewarmed %d entries, want %d", rec.Entries, len(want))
	}
	var wantBytes int64
	for _, p := range want {
		wantBytes += int64(len(p))
	}
	if rec.Bytes != wantBytes {
		t.Fatalf("rewarmed %d bytes, want %d", rec.Bytes, wantBytes)
	}
	for k, p := range want {
		got, err := l2.Get(k)
		if err != nil || !bytes.Equal(got, p) {
			t.Fatalf("Get(%q) after reopen: %v", k, err)
		}
	}
	if _, err := l2.Get("ds\x00chunk07"); err != errNotFound {
		t.Fatalf("removed key resurrected: %v", err)
	}
	// New adds after reopen land in a fresh segment and survive another
	// reopen.
	if _, err := l2.Add("late", payload(99, 64)); err != nil {
		t.Fatalf("Add after reopen: %v", err)
	}
	l2.Close()
	l3, rec3 := openT(t, Config{Dir: dir})
	if rec3.Entries != len(want)+1 {
		t.Fatalf("second rewarm %d entries, want %d", rec3.Entries, len(want)+1)
	}
	if got, err := l3.Get("late"); err != nil || !bytes.Equal(got, payload(99, 64)) {
		t.Fatalf("Get(late): %v", err)
	}
}

func TestTornManifestTail(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Config{Dir: dir})
	for i := range 5 {
		if _, err := l.Add(fmt.Sprintf("k%d", i), payload(i, 256)); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	l.Close()

	// Simulate a crash mid-append: garbage bytes at the manifest tail.
	mf := filepath.Join(dir, manifestName)
	f, err := os.OpenFile(mf, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{opAdd, 0xff, 0xff, 1, 2, 3})
	f.Close()

	l2, rec := openT(t, Config{Dir: dir})
	if !rec.truncated {
		t.Fatal("torn tail not reported")
	}
	if rec.Entries != 5 {
		t.Fatalf("rewarmed %d entries, want 5", rec.Entries)
	}
	for i := range 5 {
		if got, err := l2.Get(fmt.Sprintf("k%d", i)); err != nil || !bytes.Equal(got, payload(i, 256)) {
			t.Fatalf("Get(k%d) = %v", i, err)
		}
	}
	// The compaction at open rewrote the manifest; a further reopen sees
	// a clean file.
	l2.Close()
	_, rec3 := openT(t, Config{Dir: dir})
	if rec3.truncated || rec3.Entries != 5 {
		t.Fatalf("post-compaction reopen: %+v", rec3)
	}
}

func TestMissingSegmentDropsEntries(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments so entries spread across files.
	l, _ := openT(t, Config{Dir: dir, segmentBytes: 600})
	for i := range 6 {
		if _, err := l.Add(fmt.Sprintf("k%d", i), payload(i, 500)); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if l.Stats().Segments < 3 {
		t.Fatalf("want >=3 segments, got %d", l.Stats().Segments)
	}
	l.Close()
	if err := os.Remove(filepath.Join(dir, "seg-00000001.spill")); err != nil {
		t.Fatal(err)
	}
	l2, rec := openT(t, Config{Dir: dir, segmentBytes: 600})
	if rec.dropped == 0 {
		t.Fatal("missing segment dropped no entries")
	}
	if rec.Entries+rec.dropped != 6 {
		t.Fatalf("entries %d + dropped %d != 6", rec.Entries, rec.dropped)
	}
	if _, err := l2.Get("k0"); err != errNotFound {
		t.Fatalf("entry of missing segment resurfaced: %v", err)
	}
}

func TestCorruptPayloadDropped(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Config{Dir: dir})
	if _, err := l.Add("k", payload(3, 512)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Flip a byte inside the payload on disk.
	seg := filepath.Join(dir, "seg-00000001.spill")
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[100] ^= 0xff
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rec := openT(t, Config{Dir: dir})
	if rec.Entries != 1 {
		t.Fatalf("rewarmed %d entries", rec.Entries)
	}
	if _, err := l2.Get("k"); err != errCorrupt {
		t.Fatalf("Get of corrupted payload = %v, want errCorrupt", err)
	}
	if has(l2, "k") {
		t.Fatal("corrupt entry not dropped")
	}
}

func has(l *Log, key string) bool {
	_, ok := l.Size(key)
	return ok
}

func TestCapacityRetiresOldestSegments(t *testing.T) {
	l, _ := openT(t, Config{
		Dir:           t.TempDir(),
		CapacityBytes: 4000,
		segmentBytes:  1000,
	})
	for i := range 10 {
		if _, err := l.Add(fmt.Sprintf("k%d", i), payload(i, 900)); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	st := l.Stats()
	if st.DiskBytes > 4000+900 {
		t.Fatalf("disk bytes %d way over capacity", st.DiskBytes)
	}
	if st.DroppedEntries == 0 || st.droppedBytes != 900*st.DroppedEntries {
		t.Fatalf("retirement reported %d entries, %d bytes", st.DroppedEntries, st.droppedBytes)
	}
	// Oldest keys are gone, newest still present.
	if has(l, "k0") {
		t.Fatal("k0 survived retirement")
	}
	if !has(l, "k9") {
		t.Fatal("k9 retired")
	}
}

func TestConcurrentAddRead(t *testing.T) {
	l, _ := openT(t, Config{Dir: t.TempDir(), segmentBytes: 4096})
	const keys = 64
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				k := fmt.Sprintf("k%d", (g*31+i)%keys)
				switch i % 3 {
				case 0:
					l.Add(k, payload(g, 300))
				case 1:
					l.Get(k)
				default:
					l.ReadAt(k, 10, 20)
				}
			}
		}()
	}
	wg.Wait()
	if l.Len() == 0 {
		t.Fatal("nothing stored")
	}
}

func TestManifestCompaction(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Config{Dir: dir})
	// Churn adds+removes on a small key set until dead records dominate
	// and compaction fires; the manifest must stay bounded.
	for i := range compactMinRecords * 3 {
		k := fmt.Sprintf("k%d", i%8)
		l.Remove(k)
		if _, err := l.Add(k, payload(i, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if rc := l.Stats().ManifestRecords; rc >= compactMinRecords*2 {
		t.Fatalf("manifest never compacted: %d records", rc)
	}
	l.Close()
	_, rec := openT(t, Config{Dir: dir})
	if rec.Entries != 8 {
		t.Fatalf("rewarmed %d entries, want 8", rec.Entries)
	}
}

func TestHeaderVersionMismatchResets(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Config{Dir: dir})
	l.Add("k", payload(1, 64))
	l.Close()
	mf := filepath.Join(dir, manifestName)
	b, _ := os.ReadFile(mf)
	binary.LittleEndian.PutUint32(b[4:], manifestVersion+1)
	os.WriteFile(mf, b, 0o644)
	l2, rec := openT(t, Config{Dir: dir})
	if rec.Entries != 0 {
		t.Fatalf("future-version manifest replayed %d entries", rec.Entries)
	}
	// The orphaned segment was cleaned up and the log is writable.
	if _, err := l2.Add("k2", payload(2, 64)); err != nil {
		t.Fatalf("Add after reset: %v", err)
	}
}
