package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"diesel/internal/chunk"
	"diesel/internal/kvstore"
	"diesel/internal/meta"
	"diesel/internal/objstore"
)

// countingBackend counts the read calls the server makes on its metadata
// backend, by shape: a batch read (MGet) or a single-key one (Get).
type countingBackend struct {
	*kvstore.Local
	gets, mgets atomic.Int64
}

func (c *countingBackend) GetContext(ctx context.Context, key string) ([]byte, error) {
	c.gets.Add(1)
	return c.Local.GetContext(ctx, key)
}

func (c *countingBackend) MGetContext(ctx context.Context, keys []string) ([][]byte, error) {
	c.mgets.Add(1)
	return c.Local.MGetContext(ctx, keys)
}

// calls returns the (MGet, Get) calls made since the last call of calls.
func (c *countingBackend) calls() (mgets, gets int64) {
	return c.mgets.Swap(0), c.gets.Swap(0)
}

func sortedNames(files map[string][]byte) []string {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (s *Server) cachedShapes() int {
	s.shapeMu.RLock()
	defer s.shapeMu.RUnlock()
	return len(s.shapes)
}

// TestWarmBatchReadIsOneMGet: a batch of 8 files in 8 chunks costs its
// batch stat plus one chunk-record Get per chunk the first time, and the
// batch stat alone from then on.
func TestWarmBatchReadIsOneMGet(t *testing.T) {
	s, _, local, gen := testStack()
	kv := &countingBackend{Local: local}
	s.kv = kv
	files := writeFiles(t, s, gen, "ds", 8, 1500, 1000) // a file fills a chunk
	snap, err := s.BuildSnapshot("ds")
	if err != nil || len(snap.Chunks) != 8 {
		t.Fatalf("want 8 chunks, got %d (%v)", len(snap.Chunks), err)
	}
	names := sortedNames(files)
	kv.calls()

	for pass, wantGets := range []int64{8, 0, 0} {
		got, err := s.GetFilesContext(context.Background(), "ds", names)
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range names {
			if !bytes.Equal(got[i], files[n]) {
				t.Fatalf("pass %d: %s differs from what was put", pass, n)
			}
		}
		if mgets, gets := kv.calls(); mgets != 1 || gets != wantGets {
			t.Errorf("pass %d: %d MGet + %d Get calls, want 1 + %d", pass, mgets, gets, wantGets)
		}
	}
	// The single-file path shares the cache: stat, and nothing else.
	if _, err := getFile(s, "ds", names[0]); err != nil {
		t.Fatal(err)
	}
	if mgets, gets := kv.calls(); mgets != 0 || gets != 1 {
		t.Errorf("warm GetFilePooled: %d MGet + %d Get calls, want 0 + 1", mgets, gets)
	}
}

// TestMergeDecisionSameColdAndWarm: the executor's merge rule decides on
// the chunk record's numbers whether they came from the metadata store or
// from the shape cache — same whole-chunk/range choice at each edge of
// the file-count and span-fraction thresholds, same bytes.
func TestMergeDecisionSameColdAndWarm(t *testing.T) {
	s0, obj, kv, gen := testStack()
	files := writeFiles(t, s0, gen, "ds", 10, 100, 1<<20) // one chunk
	snap, err := s0.BuildSnapshot("ds")
	if err != nil || len(snap.Chunks) != 1 {
		t.Fatalf("want 1 chunk, got %d (%v)", len(snap.Chunks), err)
	}
	size := float64(snap.Chunks[0].Size)
	names := sortedNames(files)
	// exactly is the span fraction that b bytes of this chunk just meet,
	// b/size rounded down to where the rule's product does not overshoot b.
	exactly := func(b float64) float64 {
		f := b / size
		for f*size > b {
			f = math.Nextafter(f, 0)
		}
		return f
	}

	for _, tc := range []struct {
		name      string
		merge     bool
		minFiles  int
		minSpan   float64
		n         int // files requested, 100 bytes each
		wantMerge bool
	}{
		{"below the file count", true, 4, 2, 3, false},
		{"at the file count", true, 4, 2, 4, true},
		{"exactly the span fraction", true, 100, exactly(300), 3, true},
		{"just under the span fraction", true, 100, 301 / size, 3, false},
		{"one file, span fraction met", true, 100, exactly(100), 1, true},
		{"merging off", false, 1, 0, 10, false},
	} {
		s := New(kv, obj, s0.nowNS) // a fresh server: nothing cached
		s.Exec.Merge, s.Exec.minFiles, s.Exec.minSpan = tc.merge, tc.minFiles, tc.minSpan
		for cached, state := range []string{"cold", "warm"} {
			if s.cachedShapes() != cached {
				t.Fatalf("%s, %s: %d shapes cached, want %d", tc.name, state, s.cachedShapes(), cached)
			}
			chunkReads, rangeReads := s.Exec.Stats.ChunkReads.Load(), s.Exec.Stats.RangeReads.Load()
			got, err := s.GetFilesContext(context.Background(), "ds", names[:tc.n])
			if err != nil {
				t.Fatalf("%s, %s: %v", tc.name, state, err)
			}
			chunkReads = s.Exec.Stats.ChunkReads.Load() - chunkReads
			rangeReads = s.Exec.Stats.RangeReads.Load() - rangeReads
			wantChunk, wantRange := uint64(0), uint64(tc.n)
			if tc.wantMerge {
				wantChunk, wantRange = 1, 0
			}
			if chunkReads != wantChunk || rangeReads != wantRange {
				t.Errorf("%s, %s: %d chunk reads + %d range reads, want %d + %d",
					tc.name, state, chunkReads, rangeReads, wantChunk, wantRange)
			}
			for i := range got {
				if !bytes.Equal(got[i], files[names[i]]) {
					t.Errorf("%s, %s: %s differs from what was put", tc.name, state, names[i])
				}
			}
		}
	}
}

// TestDeleteDatasetDropsShapes: a server that ingests, reads and deletes
// datasets ends with an empty shape cache, and what it forgot it cannot
// serve: the record is gone from the metadata store too.
func TestDeleteDatasetDropsShapes(t *testing.T) {
	s, _, _, gen := testStack()
	var lastDS, lastFile string
	var lastChunk chunk.ID
	for i := range 100 {
		ds := fmt.Sprintf("ds%03d", i)
		files := writeFiles(t, s, gen, ds, 6, 300, 500) // 3 chunks
		names := sortedNames(files)
		if _, err := s.GetFilesContext(context.Background(), ds, names); err != nil {
			t.Fatal(err)
		}
		if got := s.cachedShapes(); got != 3 {
			t.Fatalf("%s: %d shapes cached after reading its 3 chunks", ds, got)
		}
		snap, err := s.BuildSnapshot(ds)
		if err != nil {
			t.Fatal(err)
		}
		lastDS, lastChunk, lastFile = ds, snap.Chunks[0].ID, names[0]
		if err := s.DeleteDataset(ds); err != nil {
			t.Fatal(err)
		}
		if got := s.cachedShapes(); got != 0 {
			t.Fatalf("%s: %d shapes still cached after DeleteDataset", ds, got)
		}
	}
	if _, _, err := s.GetChunkPooled(context.Background(), lastDS, lastChunk.String()); !errors.Is(err, objstore.ErrNotFound) {
		t.Errorf("chunk of a deleted dataset: %v, want objstore.ErrNotFound", err)
	}
	if _, err := s.shapeOf(context.Background(), lastDS, lastChunk); !errors.Is(err, kvstore.ErrNotFound) {
		t.Errorf("shape of a deleted chunk: %v, want kvstore.ErrNotFound", err)
	}
	if _, err := getFile(s, lastDS, lastFile); !errors.Is(err, ErrNoSuchFile) {
		t.Errorf("file of a deleted dataset: %v, want ErrNoSuchFile", err)
	}
}

// TestStaleShapeFailsAtTheObjectStore: a shape that outlives its chunk —
// another server sharing the stores deleted it — is not an answer. The
// read goes to the object store with it and comes back not-found.
func TestStaleShapeFailsAtTheObjectStore(t *testing.T) {
	s, obj, kv, gen := testStack()
	files := writeFiles(t, s, gen, "ds", 4, 100, 1<<20)
	names := sortedNames(files)
	if _, err := getFile(s, "ds", names[0]); err != nil { // caches the shape
		t.Fatal(err)
	}
	snap, _ := s.BuildSnapshot("ds")
	id := snap.Chunks[0].ID.String()

	// Behind this server's back the chunk goes (object and record) and the
	// file record stays — the worst case for a cached shape.
	if err := obj.Delete(ObjectKey("ds", id)); err != nil {
		t.Fatal(err)
	}
	kv.Del(meta.ChunkKey("ds", id))

	if _, err := getFile(s, "ds", names[0]); !errors.Is(err, objstore.ErrNotFound) {
		t.Errorf("GetFilePooled on a deleted chunk: %v, want objstore.ErrNotFound", err)
	}
	if _, err := s.GetFilesContext(context.Background(), "ds", names); !errors.Is(err, objstore.ErrNotFound) {
		t.Errorf("GetFilesContext on a deleted chunk: %v, want objstore.ErrNotFound", err)
	}
}

// TestShapeCacheIsBounded: a full cache is reset, not grown.
func TestShapeCacheIsBounded(t *testing.T) {
	s, _, _, gen := testStack()
	files := writeFiles(t, s, gen, "ds", 2, 100, 1<<20)
	s.shapeMu.Lock()
	for i := range maxChunkShapes {
		s.shapes[shapeKey{"gone", chunk.ID{byte(i >> 8), byte(i)}}] = chunkShape{}
	}
	s.shapeMu.Unlock()
	for n, want := range files {
		if got, err := getFile(s, "ds", n); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read with a full cache: %v", err)
		}
	}
	if got := s.cachedShapes(); got != 1 {
		t.Errorf("%d shapes cached after a miss on a full cache, want 1", got)
	}
}

// TestShapeCacheConcurrent runs batch reads of one dataset beside ingest,
// read and DeleteDataset cycles of others, for the race detector.
func TestShapeCacheConcurrent(t *testing.T) {
	s, _, _, gen := testStack()
	files := writeFiles(t, s, gen, "ds", 40, 200, 1000) // 8 chunks of 5
	names := sortedNames(files)

	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50 {
				batch := names[(w*7+i)%32:][:8]
				got, err := s.GetFilesContext(context.Background(), "ds", batch)
				if err != nil {
					t.Error(err)
					return
				}
				for j, n := range batch {
					if !bytes.Equal(got[j], files[n]) {
						t.Errorf("%s differs from what was put", n)
						return
					}
				}
			}
		}()
	}
	for i := range 20 {
		ds := fmt.Sprintf("tmp%d", i)
		tmp := writeFiles(t, s, gen, ds, 6, 200, 500)
		if _, err := s.GetFilesContext(context.Background(), ds, sortedNames(tmp)); err != nil {
			t.Fatal(err)
		}
		if err := s.DeleteDataset(ds); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if got := s.cachedShapes(); got != 8 {
		t.Errorf("%d shapes cached, want the 8 chunks of the dataset that was not deleted", got)
	}
}

// loanCountingStore counts the loans a store hands out and the releases it
// gets back.
type loanCountingStore struct {
	*objstore.Memory
	lent, released atomic.Int64
}

func (c *loanCountingStore) counted(b []byte, release func(), err error) ([]byte, func(), error) {
	if err != nil {
		return nil, nil, err
	}
	c.lent.Add(1)
	return b, func() { c.released.Add(1); release() }, nil
}

func (c *loanCountingStore) GetPooled(key string) ([]byte, func(), error) {
	return c.counted(c.Memory.GetPooled(key))
}

func (c *loanCountingStore) GetRangePooled(key string, off, n int64) ([]byte, func(), error) {
	return c.counted(c.Memory.GetRangePooled(key, off, n))
}

// TestFileRecordOverrunningItsChunk: a file record whose Offset+Length
// runs past the end of its chunk is an error — the same one on the
// single-file path, the executor's range path and its merge path — never a
// short file, and every loan taken on the way is handed back exactly once.
func TestFileRecordOverrunningItsChunk(t *testing.T) {
	s, mem, kv, gen := testStack()
	obj := &loanCountingStore{Memory: mem}
	s.objects = obj
	files := writeFiles(t, s, gen, "ds", 10, 100, 1<<20) // one chunk
	names := sortedNames(files)
	// The chunk's tail file: a range that runs past it is clamped.
	var fr meta.FileRecord
	for _, n := range names {
		r, err := s.StatContext(context.Background(), "ds", n)
		if err != nil {
			t.Fatal(err)
		}
		if r.Offset >= fr.Offset {
			fr = r
		}
	}
	last := fr.FullName
	fr.Length += 7
	if err := kv.Set(meta.FileKey("ds", last), fr.Encode()); err != nil {
		t.Fatal(err)
	}

	check := func(what string, err error, wantLoans int64) {
		t.Helper()
		if !errors.Is(err, errOutOfChunk) {
			t.Errorf("%s: %v, want errOutOfChunk", what, err)
		}
		if lent, released := obj.lent.Swap(0), obj.released.Swap(0); lent != wantLoans || released != lent {
			t.Errorf("%s: %d loans taken (want %d), %d released", what, lent, wantLoans, released)
		}
	}
	b, release, err := s.GetFilePooled(context.Background(), "ds", last)
	if err == nil {
		release()
		t.Errorf("GetFilePooled returned %d bytes for a %d-byte record", len(b), fr.Length)
	}
	check("GetFilePooled", err, 1)

	chunkReads, rangeReads := s.Exec.Stats.ChunkReads.Load(), s.Exec.Stats.RangeReads.Load()
	_, err = s.GetFilesContext(context.Background(), "ds", []string{last})
	check("GetFilesContext, range path", err, 1)
	others := make([]string, 0, len(names)-1)
	for _, n := range names {
		if n != last {
			others = append(others, n)
		}
	}
	_, err = s.GetFilesContext(context.Background(), "ds", append([]string{last}, others[:3]...))
	check("GetFilesContext, merge path", err, 1)
	if c, r := s.Exec.Stats.ChunkReads.Load()-chunkReads, s.Exec.Stats.RangeReads.Load()-rangeReads; c != 1 || r != 0 {
		t.Errorf("%d chunk reads + %d completed range reads, want 1 + 0 (one batch per path)", c, r)
	}

	// The other files of the chunk are served as before, on both paths.
	for _, n := range [][]string{others[:1], others[:4]} {
		got, err := s.GetFilesContext(context.Background(), "ds", n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !bytes.Equal(got[i], files[n[i]]) {
				t.Errorf("%s differs from what was put", n[i])
			}
		}
	}
	if lent, released := obj.lent.Load(), obj.released.Load(); lent != 2 || released != lent {
		t.Errorf("healthy reads: %d loans, %d released, want 2 and 2", lent, released)
	}
}
