package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diesel/internal/chunk"
	"diesel/internal/kvstore"
	"diesel/internal/meta"
	"diesel/internal/objstore"
)

// hookedKV is a Backend over kvstore.Local that calls hook after each
// call it forwards, once the call's effect has landed: tests count calls
// with it, or hold one open to look at what the KV database says meanwhile.
type hookedKV struct {
	*kvstore.Local
	hook func(op, key string)
}

func (h hookedKV) GetContext(ctx context.Context, key string) ([]byte, error) {
	v, err := h.Local.GetContext(ctx, key)
	h.hook("get", key)
	return v, err
}

func (h hookedKV) Set(key string, value []byte) error {
	err := h.Local.Set(key, value)
	h.hook("set", key)
	return err
}

func (h hookedKV) MSet(pairs []kvstore.KV) error {
	err := h.Local.MSet(pairs)
	h.hook("mset", pairs[0].Key)
	return err
}

func (h hookedKV) MGetContext(ctx context.Context, keys []string) ([][]byte, error) {
	v, err := h.Local.MGetContext(ctx, keys)
	h.hook("mget", "")
	return v, err
}

func (h hookedKV) Del(key string) (bool, error) {
	ok, err := h.Local.Del(key)
	h.hook("del", key)
	return ok, err
}

func (h hookedKV) ScanPrefix(prefix string) ([]kvstore.KV, error) {
	v, err := h.Local.ScanPrefix(prefix)
	h.hook("scan", prefix)
	return v, err
}

// sealOne builds one chunk holding the given name → content pairs, in order.
func sealOne(t testing.TB, gen *chunk.IDGenerator, nowNS func() int64, files ...string) []byte {
	t.Helper()
	b := chunk.NewBuilder(0, gen, nowNS)
	for i := 0; i < len(files); i += 2 {
		if _, err := b.Add(files[i], []byte(files[i+1])); err != nil {
			t.Fatal(err)
		}
	}
	_, enc, err := b.Seal()
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestIngestKVRoundTrips: ingesting a chunk costs the KV database exactly
// the file records' MSet, the chunk record's Set after it, and the dataset
// record's blind Set — no read: the object store, not a lookup, refuses a
// taken chunk ID.
func TestIngestKVRoundTrips(t *testing.T) {
	var mu sync.Mutex
	calls := map[string]int{}
	kv := hookedKV{Local: kvstore.NewLocal(), hook: func(op, _ string) {
		mu.Lock()
		calls[op]++
		mu.Unlock()
	}}
	s := New(kv, objstore.NewMemory(), func() int64 { return time.Now().UnixNano() })
	gen := chunk.NewIDGeneratorAt([6]byte{7}, 1, func() uint32 { return 100 })
	const chunks = 5
	for i := range chunks {
		if _, err := s.Ingest("ds", sealOne(t, gen, s.nowNS, fmt.Sprintf("d/f%d", i), "x", fmt.Sprintf("e/f%d", i), "y")); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]int{"mset": chunks, "set": 2 * chunks}
	if fmt.Sprint(calls) != fmt.Sprint(want) {
		t.Errorf("KV calls for %d ingests = %v, want %v", chunks, calls, want)
	}
}

// TestDeleteKVRoundTrips: deleting a file costs the KV database one Del of
// its record and the stamp's Set — no read, no chunk record write. A file
// that is not there fails with ErrNoSuchFile after the stamp, which a
// delete run again after a crash before its stamp must still write; the
// dataset record is read first, so a dataset that does not exist gets none.
func TestDeleteKVRoundTrips(t *testing.T) {
	var mu sync.Mutex
	var calls []string
	kv := hookedKV{Local: kvstore.NewLocal(), hook: func(op, key string) {
		mu.Lock()
		calls = append(calls, op+" "+key[:strings.IndexByte(key, '|')+1])
		mu.Unlock()
	}}
	s := New(kv, objstore.NewMemory(), func() int64 { return time.Now().UnixNano() })
	gen := chunk.NewIDGeneratorAt([6]byte{7}, 1, func() uint32 { return 100 })
	if _, err := s.Ingest("ds", sealOne(t, gen, s.nowNS, "d/a", "aa", "d/b", "bb")); err != nil {
		t.Fatal(err)
	}

	calls = nil
	if err := s.deleteFile("ds", "d/a"); err != nil {
		t.Fatal(err)
	}
	if want := []string{"del f|", "set ds|"}; fmt.Sprint(calls) != fmt.Sprint(want) {
		t.Errorf("KV calls for one delete = %q, want %q", calls, want)
	}
	calls = nil
	if err := s.deleteFile("ds", "d/a"); !errors.Is(err, ErrNoSuchFile) {
		t.Errorf("deleting a deleted file: %v, want ErrNoSuchFile", err)
	}
	if want := []string{"del f|", "get ds|", "set ds|"}; fmt.Sprint(calls) != fmt.Sprint(want) {
		t.Errorf("KV calls for a delete of nothing = %q, want %q", calls, want)
	}
	calls = nil
	if err := s.deleteFile("nods", "d/a"); !errors.Is(err, ErrNoSuchFile) {
		t.Errorf("deleting in a dataset that does not exist: %v, want ErrNoSuchFile", err)
	}
	if want := []string{"del f|", "get ds|"}; fmt.Sprint(calls) != fmt.Sprint(want) {
		t.Errorf("KV calls for a delete in a dataset that does not exist = %q, want %q", calls, want)
	}
}

// TestStampFollowsTheData: the dataset record is written after the data it
// covers, so a snapshot built while an ingest's pairs or a delete's removal
// has landed but the stamp has not is stale against the record read after
// the call returns.
func TestStampFollowsTheData(t *testing.T) {
	var hold atomic.Value // op name to hold, or ""
	hold.Store("")
	held, release := make(chan struct{}), make(chan struct{})
	kv := hookedKV{Local: kvstore.NewLocal(), hook: func(op, _ string) {
		if op == hold.Load() {
			hold.Store("")
			held <- struct{}{}
			<-release
		}
	}}
	s := New(kv, objstore.NewMemory(), func() int64 { return time.Now().UnixNano() })
	gen := chunk.NewIDGeneratorAt([6]byte{7}, 1, func() uint32 { return 100 })
	if _, err := s.Ingest("ds", sealOne(t, gen, s.nowNS, "a", "aaa")); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		op  string
		run func() error
	}{
		{"mset", func() error { _, err := s.Ingest("ds", sealOne(t, gen, s.nowNS, "b", "bbb")); return err }},
		{"del", func() error { return s.deleteFile("ds", "a") }},
	} {
		hold.Store(c.op)
		done := make(chan error, 1)
		go func() { done <- c.run() }()
		<-held
		snap, err := s.BuildSnapshot("ds")
		release <- struct{}{}
		if err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		rec, err := s.datasetRecord("ds")
		if err != nil {
			t.Fatal(err)
		}
		if err := snap.Validate(rec); !errors.Is(err, meta.ErrStaleSnapshot) {
			t.Errorf("a snapshot built with the %s landed and the stamp not: Validate = %v, want stale", c.op, err)
		}
		if err := snapshotOf(t, s, "ds").Validate(rec); err != nil {
			t.Errorf("a snapshot built after the %s returned: %v", c.op, err)
		}
	}
}

// TestTwoServersOneDataset: two server cores over one KV database and one
// object store ingest into one dataset at once. Every chunk and file is in
// the snapshot, every file reads from both cores, and a snapshot built
// afterwards is current.
func TestTwoServersOneDataset(t *testing.T) {
	kv, obj := kvstore.NewLocal(), objstore.NewMemory()
	clock := func() int64 { return time.Now().UnixNano() }
	servers := []*Server{New(kv, obj, clock), New(kv, obj, clock)}
	const writers, perWriter = 4, 200
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := servers[w%len(servers)]
			gen := chunk.NewIDGeneratorAt([6]byte{byte(w + 1)}, uint32(w), func() uint32 { return 100 })
			for i := range perWriter {
				name := fmt.Sprintf("w%d/f%04d", w, i)
				if _, err := s.Ingest("ds", sealOne(t, gen, clock, name, name)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	snap := snapshotOf(t, servers[0], "ds")
	if len(snap.Chunks) != writers*perWriter || snap.NumFiles() != writers*perWriter {
		t.Errorf("snapshot holds %d chunks and %d files, want %d of each", len(snap.Chunks), snap.NumFiles(), writers*perWriter)
	}
	for w := range writers {
		for i := range perWriter {
			name := fmt.Sprintf("w%d/f%04d", w, i)
			for k, s := range servers {
				if got, err := getFile(s, "ds", name); err != nil || string(got) != name {
					t.Fatalf("server %d reads %q as %q, %v", k, name, got, err)
				}
			}
		}
	}
	rec, err := servers[1].datasetRecord("ds")
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Validate(rec); err != nil {
		t.Errorf("snapshot built after the writers finished: %v", err)
	}
}

// TestPurgeKeepsLatestVersion: a path written twice is carried by purge
// from the chunk its record names, not from the older chunk a deletion
// holed, and the snapshot counts it once.
func TestPurgeKeepsLatestVersion(t *testing.T) {
	s, _, _, gen := testStack()
	for _, enc := range [][]byte{
		sealOne(t, gen, s.nowNS, "x", "old-x", "y", "yy"),
		sealOne(t, gen, s.nowNS, "x", "new-x"),
	} {
		if _, err := s.Ingest("ds", enc); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.deleteFile("ds", "y"); err != nil {
		t.Fatal(err)
	}
	st, err := s.purge("ds", gen)
	if err != nil {
		t.Fatal(err)
	}
	if st.FilesCarried != 0 || st.BytesReclaimed != uint64(len("old-x")+len("yy")) {
		t.Errorf("purge = %+v; the holed chunk holds nothing live", st)
	}
	if got, err := getFile(s, "ds", "x"); err != nil || string(got) != "new-x" {
		t.Errorf("x after purge = %q, %v; want the second version", got, err)
	}
	snap := snapshotOf(t, s, "ds")
	if snap.NumFiles() != 1 || snap.TotalBytes() != uint64(len("new-x")) {
		t.Errorf("snapshot after purge = %v; want x once", snap)
	}
}

// TestPurgeReclaimsOverwrites: a path written again into a later chunk,
// with nothing deleted, leaves a hole in the earlier chunk. Purge rewrites
// that chunk, carrying only the entries their records still name, and the
// path reads its second version throughout.
func TestPurgeReclaimsOverwrites(t *testing.T) {
	s, obj, _, gen := testStack()
	first := sealOne(t, gen, s.nowNS, "x", "old-x", "y", "yy")
	for _, enc := range [][]byte{first, sealOne(t, gen, s.nowNS, "x", "new-x")} {
		if _, err := s.Ingest("ds", enc); err != nil {
			t.Fatal(err)
		}
	}
	h, _, err := chunk.ParseHeader(first)
	if err != nil {
		t.Fatal(err)
	}

	st, err := s.purge("ds", gen)
	if err != nil {
		t.Fatal(err)
	}
	if want := (PurgeStats{ChunksRewritten: 1, ChunksDeleted: 1, BytesReclaimed: uint64(len("old-x")), FilesCarried: 1}); st != want {
		t.Errorf("purge = %+v, want %+v", st, want)
	}
	if _, err := obj.Get(ObjectKey("ds", h.ID.String())); !errors.Is(err, objstore.ErrNotFound) {
		t.Errorf("the overwritten chunk's object after purge: %v, want ErrNotFound", err)
	}
	for name, want := range map[string]string{"x": "new-x", "y": "yy"} {
		if got, err := getFile(s, "ds", name); err != nil || string(got) != want {
			t.Errorf("%s after purge = %q, %v; want %q", name, got, err, want)
		}
	}
	snap := snapshotOf(t, s, "ds")
	if len(snap.Chunks) != 2 || snap.NumFiles() != 2 || snap.TotalBytes() != uint64(len("new-x")+len("yy")) {
		t.Errorf("snapshot after purge = %v; want x and y in two chunks", snap)
	}
	if st, err := s.purge("ds", gen); err != nil || st != (PurgeStats{}) {
		t.Errorf("a second purge = %+v, %v; want nothing to do", st, err)
	}
}

// splitMSetKV is a Backend over kvstore.Local whose MSet lands its pairs
// in two halves and calls between after the first, the way a KV cluster's
// parallel fan-out can leave an MSet half landed for a while.
type splitMSetKV struct {
	*kvstore.Local
	between func()
}

func (k splitMSetKV) MSet(pairs []kvstore.KV) error {
	half := len(pairs) / 2
	if err := k.Local.MSet(pairs[:half]); err != nil {
		return err
	}
	k.between()
	return k.Local.MSet(pairs[half:])
}

// TestPurgeDuringIngest: a purge that runs while an ingest's metadata has
// half landed neither retires the chunk being ingested nor loses any of its
// files. A chunk record lands only after all its file records have, so
// purge cannot see the chunk beside some of them and take the rest for
// holes.
func TestPurgeDuringIngest(t *testing.T) {
	var armed atomic.Bool
	held, release := make(chan struct{}), make(chan struct{})
	kv := splitMSetKV{Local: kvstore.NewLocal(), between: func() {
		if armed.CompareAndSwap(true, false) {
			held <- struct{}{}
			<-release
		}
	}}
	s := New(kv, objstore.NewMemory(), func() int64 { return time.Now().UnixNano() })
	gen := chunk.NewIDGeneratorAt([6]byte{7}, 1, func() uint32 { return 100 })
	files := []string{"a", "aa", "b", "bb", "c", "cc", "d", "dd"}
	enc := sealOne(t, gen, s.nowNS, files...)

	armed.Store(true)
	done := make(chan error, 1)
	go func() { _, err := s.Ingest("ds", enc); done <- err }()
	<-held
	st, err := s.purge("ds", gen)
	release <- struct{}{}
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st != (PurgeStats{}) {
		t.Errorf("purge during the ingest = %+v; want nothing to do", st)
	}
	for i := 0; i < len(files); i += 2 {
		if got, err := getFile(s, "ds", files[i]); err != nil || string(got) != files[i+1] {
			t.Errorf("%s after the ingest returned = %q, %v; want %q", files[i], got, err, files[i+1])
		}
	}
	if n := snapshotOf(t, s, "ds").NumFiles(); n != len(files)/2 {
		t.Errorf("snapshot holds %d files, want %d", n, len(files)/2)
	}
}

// TestPurgeAfterConcurrentDeletes: two deletes in one chunk whose record
// removals have both landed before either stamps leave two holes, and
// purge brings back neither file.
func TestPurgeAfterConcurrentDeletes(t *testing.T) {
	var armed atomic.Bool
	var both sync.WaitGroup
	kv := hookedKV{Local: kvstore.NewLocal(), hook: func(op, _ string) {
		if op == "del" && armed.Load() {
			both.Done()
			both.Wait() // each delete's Del has landed before either stamps
		}
	}}
	var now int64 = 1_000_000
	s := New(kv, objstore.NewMemory(), func() int64 { return atomic.AddInt64(&now, 1) })
	gen := chunk.NewIDGeneratorAt([6]byte{7}, 1, func() uint32 { return 100 })
	if _, err := s.Ingest("ds", sealOne(t, gen, s.nowNS, "a", "aa", "b", "bb", "c", "cc")); err != nil {
		t.Fatal(err)
	}

	armed.Store(true)
	both.Add(2)
	errs := make(chan error, 2)
	for _, name := range []string{"a", "b"} {
		go func() { errs <- s.deleteFile("ds", name) }()
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	armed.Store(false)

	if _, err := s.purge("ds", gen); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		if got, err := getFile(s, "ds", name); !errors.Is(err, ErrNoSuchFile) {
			t.Errorf("deleted %s after purge = %q, %v", name, got, err)
		}
	}
	if got, err := getFile(s, "ds", "c"); err != nil || !bytes.Equal(got, []byte("cc")) {
		t.Errorf("c after purge = %q, %v", got, err)
	}
	if n := snapshotOf(t, s, "ds").NumFiles(); n != 1 {
		t.Errorf("snapshot after purge holds %d files, want 1", n)
	}
}
