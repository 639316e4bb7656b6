package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"diesel/internal/chunk"
	"diesel/internal/kvstore"
	"diesel/internal/meta"
	"diesel/internal/objstore"
)

// testStack is an in-process server over memory KV and object stores with
// a controllable clock.
func testStack() (*Server, *objstore.Memory, *kvstore.Local, *chunk.IDGenerator) {
	obj := objstore.NewMemory()
	kv := kvstore.NewLocal()
	var now int64 = 1_000_000
	s := New(kv, obj, func() int64 { now++; return now })
	gen := chunk.NewIDGeneratorAt([6]byte{1, 2, 3, 4, 5, 6}, 42, func() uint32 { return uint32(now / 1000) })
	return s, obj, kv, gen
}

// getFile and getChunk read through the pooled serving path the RPC layer
// uses, copying the bytes out so tests can hold them.
func getFile(s *Server, dataset, path string) ([]byte, error) {
	b, release, err := s.GetFilePooled(context.Background(), dataset, path)
	if err != nil {
		return nil, err
	}
	defer release()
	return append([]byte(nil), b...), nil
}

func getChunk(s *Server, dataset, chunkID string) ([]byte, error) {
	b, release, err := s.GetChunkPooled(context.Background(), dataset, chunkID)
	if err != nil {
		return nil, err
	}
	defer release()
	return append([]byte(nil), b...), nil
}

// writeFiles packs files into chunks of targetSize and ingests them,
// returning the content map.
func writeFiles(t testing.TB, s *Server, gen *chunk.IDGenerator, dataset string, n, fileSize, targetSize int) map[string][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	b := chunk.NewBuilder(targetSize, gen, s.nowNS)
	files := make(map[string][]byte, n)
	for i := range n {
		name := fmt.Sprintf("class%02d/img%05d.jpg", i%10, i)
		data := make([]byte, fileSize)
		rng.Read(data)
		files[name] = data
		full, err := b.Add(name, data)
		if err != nil {
			t.Fatal(err)
		}
		if full {
			_, enc, err := b.Seal()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Ingest(dataset, enc); err != nil {
				t.Fatal(err)
			}
		}
	}
	if b.Count() > 0 {
		_, enc, err := b.Seal()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Ingest(dataset, enc); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

func TestIngestAndGetFile(t *testing.T) {
	s, obj, _, gen := testStack()
	files := writeFiles(t, s, gen, "ds", 100, 512, 4096)

	if obj.Len() < 10 {
		t.Errorf("expected many chunks, got %d objects", obj.Len())
	}
	for name, want := range files {
		got, err := getFile(s, "ds", name)
		if err != nil {
			t.Fatalf("GetFile(%q): %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("GetFile(%q): content mismatch", name)
		}
	}
	if _, err := getFile(s, "ds", "missing"); !errors.Is(err, ErrNoSuchFile) {
		t.Errorf("missing file: %v", err)
	}
	if _, err := getFile(s, "nods", "x"); !errors.Is(err, ErrNoSuchFile) {
		t.Errorf("missing dataset: %v", err)
	}
}

func TestIngestRejectsCorruptChunk(t *testing.T) {
	s, obj, _, gen := testStack()
	b := chunk.NewBuilder(0, gen, s.nowNS)
	b.Add("f", []byte("data"))
	_, enc, _ := b.Seal()
	// One flipped bit in the header, then one in the payload: each is a
	// typed rejection that leaves no object and no key behind.
	for _, c := range []struct {
		at   int
		want error
	}{{25, chunk.ErrHeaderCRC}, {len(enc) - 1, chunk.ErrPayloadCRC}} {
		bad := bytes.Clone(enc)
		bad[c.at] ^= 0x01
		if _, err := s.Ingest("ds", bad); !errors.Is(err, c.want) {
			t.Fatalf("chunk with byte %d damaged: Ingest returned %v, want %v", c.at, err, c.want)
		}
		if n, _ := s.KVSize(); n != 0 || obj.Len() != 0 {
			t.Fatalf("rejected ingest left %d objects and %d keys behind", obj.Len(), n)
		}
	}
	if _, err := s.datasetRecord("ds"); !errors.Is(err, ErrNoSuchDataset) {
		t.Error("rejected ingest created a dataset record")
	}
	if _, err := s.Ingest("ds", enc); err != nil {
		t.Fatalf("the undamaged chunk: %v", err)
	}
}

// snapshotOf builds a snapshot of dataset, failing the test if it cannot:
// the snapshot is where a dataset's counts come from.
func snapshotOf(t testing.TB, s *Server, dataset string) *meta.Snapshot {
	t.Helper()
	snap, err := s.BuildSnapshot(dataset)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestDatasetRecordAccounting: the record is a stamp, and the counts a
// snapshot derives from the chunk and file records add up.
func TestDatasetRecordAccounting(t *testing.T) {
	s, _, _, gen := testStack()
	writeFiles(t, s, gen, "ds", 50, 100, 1000)
	rec, err := s.datasetRecord("ds")
	if err != nil {
		t.Fatal(err)
	}
	if rec.UpdatedNS == 0 {
		t.Error("UpdatedNS not stamped")
	}
	snap := snapshotOf(t, s, "ds")
	if snap.NumFiles() != 50 {
		t.Errorf("files = %d", snap.NumFiles())
	}
	if snap.TotalBytes() != 50*100 {
		t.Errorf("bytes = %d", snap.TotalBytes())
	}
	if len(snap.Chunks) < 5 {
		t.Errorf("chunks = %d", len(snap.Chunks))
	}
	if err := snap.Validate(rec); err != nil {
		t.Error(err)
	}
}

func TestStat(t *testing.T) {
	s, _, _, gen := testStack()
	writeFiles(t, s, gen, "ds", 20, 256, 2048)
	fr, err := s.StatContext(context.Background(), "ds", "class03/img00003.jpg")
	if err != nil {
		t.Fatal(err)
	}
	if fr.Length != 256 || fr.FullName != "class03/img00003.jpg" {
		t.Errorf("Stat = %+v", fr)
	}
}

// TestList: a directory listing is read from the committed view, as
// dsl.ls reads it.
func TestList(t *testing.T) {
	s, _, _, gen := testStack()
	writeFiles(t, s, gen, "ds", 20, 64, 4096)
	snap := snapshotOf(t, s, "ds")
	root, err := snap.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(root) != 10 {
		t.Fatalf("root has %d entries, want 10 class dirs: %+v", len(root), root)
	}
	for _, e := range root {
		if !e.IsDir {
			t.Errorf("unexpected file %q at root", e.Name)
		}
	}
	sub, err := snap.List("class04")
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 2 { // img00004, img00014
		t.Fatalf("class04 = %+v", sub)
	}
	if sub[0].IsDir || sub[0].Size != 64 {
		t.Errorf("file entry = %+v", sub[0])
	}
}

func TestGetFilesBatchExecutor(t *testing.T) {
	s, _, _, gen := testStack()
	files := writeFiles(t, s, gen, "ds", 200, 512, 8192)

	var paths []string
	for name := range files {
		paths = append(paths, name)
	}
	paths = append(paths, "missing/file.jpg")

	got, err := s.GetFilesContext(context.Background(), "ds", paths)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range paths {
		if p == "missing/file.jpg" {
			if got[i] != nil {
				t.Error("missing file returned data")
			}
			continue
		}
		if !bytes.Equal(got[i], files[p]) {
			t.Fatalf("batch content mismatch at %q", p)
		}
	}
	// Full-dataset batch must be dominated by chunk reads, not ranges.
	cr := s.Exec.Stats.ChunkReads.Load()
	rr := s.Exec.Stats.RangeReads.Load()
	if cr == 0 {
		t.Error("executor never merged into chunk reads")
	}
	if rr > cr {
		t.Errorf("executor used %d range reads vs %d chunk reads on a full scan", rr, cr)
	}
}

func TestExecutorMergeOffUsesRangeReads(t *testing.T) {
	s, _, _, gen := testStack()
	files := writeFiles(t, s, gen, "ds", 50, 512, 8192)
	s.Exec.Merge = false
	var paths []string
	for name := range files {
		paths = append(paths, name)
	}
	got, err := s.GetFilesContext(context.Background(), "ds", paths)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range paths {
		if !bytes.Equal(got[i], files[p]) {
			t.Fatalf("content mismatch at %q", p)
		}
	}
	if s.Exec.Stats.ChunkReads.Load() != 0 {
		t.Error("merge disabled but chunk reads happened")
	}
	if s.Exec.Stats.RangeReads.Load() != 50 {
		t.Errorf("RangeReads = %d, want 50", s.Exec.Stats.RangeReads.Load())
	}
}

func TestExecutorSmallBatchUsesRangeReads(t *testing.T) {
	s, _, _, gen := testStack()
	// Large chunks, tiny files: one file per chunk group stays a range read.
	files := writeFiles(t, s, gen, "ds", 100, 100, 1<<20)
	var one []string
	for name := range files {
		one = append(one, name)
		break
	}
	if _, err := s.GetFilesContext(context.Background(), "ds", one); err != nil {
		t.Fatal(err)
	}
	if s.Exec.Stats.ChunkReads.Load() != 0 {
		t.Error("single small file triggered a whole-chunk read")
	}
}

func TestGetFilesEmpty(t *testing.T) {
	s, _, _, _ := testStack()
	out, err := s.GetFilesContext(context.Background(), "ds", nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %v, %v", out, err)
	}
}

func TestBuildSnapshotMatchesContent(t *testing.T) {
	s, _, _, gen := testStack()
	files := writeFiles(t, s, gen, "ds", 120, 256, 4096)
	snap, err := s.BuildSnapshot("ds")
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumFiles() != len(files) {
		t.Fatalf("snapshot has %d files, want %d", snap.NumFiles(), len(files))
	}
	rec, _ := s.datasetRecord("ds")
	if err := snap.Validate(rec); err != nil {
		t.Fatalf("fresh snapshot stale: %v", err)
	}
	// Every file is locatable and its chunk+offset resolves to the bytes.
	for name, want := range files {
		m, err := snap.Stat(name)
		if err != nil {
			t.Fatalf("snapshot Stat(%q): %v", name, err)
		}
		cm := snap.Chunks[m.ChunkIdx]
		blob, err := getChunk(s, "ds", cm.ID.String())
		if err != nil {
			t.Fatal(err)
		}
		start := uint64(cm.HeaderLen) + m.Offset
		if !bytes.Equal(blob[start:start+m.Length], want) {
			t.Fatalf("snapshot-located bytes mismatch for %q", name)
		}
	}
}

func TestDeleteFile(t *testing.T) {
	s, _, _, gen := testStack()
	files := writeFiles(t, s, gen, "ds", 30, 128, 2048)
	victim := "class05/img00005.jpg"
	if err := s.deleteFile("ds", victim); err != nil {
		t.Fatal(err)
	}
	if _, err := getFile(s, "ds", victim); !errors.Is(err, ErrNoSuchFile) {
		t.Errorf("deleted file readable: %v", err)
	}
	snap := snapshotOf(t, s, "ds")
	if snap.NumFiles() != 29 {
		t.Errorf("files = %d", snap.NumFiles())
	}
	if snap.TotalBytes() != uint64(29*128) {
		t.Errorf("bytes = %d", snap.TotalBytes())
	}
	// Other files still readable.
	for name, want := range files {
		if name == victim {
			continue
		}
		got, err := getFile(s, "ds", name)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("collateral damage on %q: %v", name, err)
		}
	}
	// Double delete fails cleanly.
	if err := s.deleteFile("ds", victim); !errors.Is(err, ErrNoSuchFile) {
		t.Errorf("double delete: %v", err)
	}
}

func TestUpdateFileViaDeleteAndRewrite(t *testing.T) {
	s, _, _, gen := testStack()
	writeFiles(t, s, gen, "ds", 10, 64, 512)
	name := "class01/img00001.jpg"
	if err := s.deleteFile("ds", name); err != nil {
		t.Fatal(err)
	}
	b := chunk.NewBuilder(0, gen, s.nowNS)
	b.Add(name, []byte("new content"))
	_, enc, _ := b.Seal()
	if _, err := s.Ingest("ds", enc); err != nil {
		t.Fatal(err)
	}
	got, err := getFile(s, "ds", name)
	if err != nil || string(got) != "new content" {
		t.Fatalf("updated file = %q, %v", got, err)
	}
}

// sameIDs returns a generator that mints the same IDs as every other one
// it returns: one machine, one process, one stopped clock.
func sameIDs() *chunk.IDGenerator {
	return chunk.NewIDGeneratorAt([6]byte{1, 2, 3, 4, 5, 6}, 42, func() uint32 { return 7 })
}

func TestIngestRejectsChunkIDCollision(t *testing.T) {
	s, _, _, _ := testStack()
	b := chunk.NewBuilder(0, sameIDs(), s.nowNS)
	b.Add("first", []byte("original"))
	h, enc, _ := b.Seal()
	if _, err := s.Ingest("ds", enc); err != nil {
		t.Fatal(err)
	}
	// A second chunk under the same ID (a misconfigured client) must be
	// rejected, not silently overwrite the first chunk's data.
	b2 := chunk.NewBuilder(0, sameIDs(), s.nowNS)
	b2.Add("second", []byte("impostor"))
	h2, enc2, _ := b2.Seal()
	if h2.ID != h.ID {
		t.Fatalf("the two generators minted %v and %v", h.ID, h2.ID)
	}
	if _, err := s.Ingest("ds", enc2); !errors.Is(err, objstore.ErrExists) {
		t.Fatalf("colliding ingest: %v, want objstore.ErrExists", err)
	}
	got, err := getFile(s, "ds", "first")
	if err != nil || string(got) != "original" {
		t.Fatalf("original chunk damaged: %q, %v", got, err)
	}
	if _, err := getFile(s, "ds", "second"); !errors.Is(err, ErrNoSuchFile) {
		t.Errorf("a file of the rejected chunk: %v, want ErrNoSuchFile", err)
	}
}

// heldPuts is a Memory whose next Put, once armed, parks before it stores
// anything, until released.
type heldPuts struct {
	*objstore.Memory
	armed            atomic.Bool
	reached, release chan struct{}
}

func (h *heldPuts) Put(key string, data []byte) error {
	if h.armed.CompareAndSwap(true, false) {
		close(h.reached)
		<-h.release
	}
	return h.Memory.Put(key, data)
}

// TestSameIDIngestsOneWins: two ingests under one chunk ID, the first
// held inside its object Put while the second runs. Exactly one lands; the
// other fails with objstore.ErrExists and writes no file record, no chunk
// record and no stamp, and every file of the winner reads its own bytes.
func TestSameIDIngestsOneWins(t *testing.T) {
	obj := &heldPuts{Memory: objstore.NewMemory(), reached: make(chan struct{}), release: make(chan struct{})}
	kv := kvstore.NewLocal()
	var now atomic.Int64
	s := New(kv, obj, func() int64 { return now.Add(1) })
	encs := [][]byte{
		sealOne(t, sameIDs(), s.nowNS, "a1", "bytes-of-a1", "a2", "bytes-of-a2"),
		sealOne(t, sameIDs(), s.nowNS, "b1", "bytes-of-b1", "b2", "bytes-of-b2"),
	}
	files := [][]string{{"a1", "a2"}, {"b1", "b2"}}

	var errs [2]error
	obj.armed.Store(true)
	done := make(chan struct{})
	go func() { defer close(done); _, errs[0] = s.Ingest("ds", encs[0]) }()
	<-obj.reached
	_, errs[1] = s.Ingest("ds", encs[1])
	stamp, _ := kv.Get(meta.DatasetKey("ds"))
	close(obj.release)
	<-done

	if (errs[0] == nil) == (errs[1] == nil) {
		t.Fatalf("ingest errors %v and %v: want exactly one to land", errs[0], errs[1])
	}
	win, lose := 0, 1
	if errs[0] != nil {
		win, lose = 1, 0
	}
	if !errors.Is(errs[lose], objstore.ErrExists) {
		t.Errorf("the losing ingest failed with %v, want objstore.ErrExists", errs[lose])
	}
	for _, name := range files[lose] {
		if _, err := kv.Get(meta.FileKey("ds", name)); !errors.Is(err, kvstore.ErrNotFound) {
			t.Errorf("the losing ingest's %s has a record (%v)", name, err)
		}
	}
	h, _, err := chunk.ParseHeader(encs[win])
	if err != nil {
		t.Fatal(err)
	}
	want := meta.PairsForChunk("ds", h, uint64(len(encs[win])))[0]
	if got, err := kv.Get(want.Key); err != nil || !bytes.Equal(got, want.Value) {
		t.Errorf("chunk record = %x, %v; want the winner's %x", got, err, want.Value)
	}
	if after, _ := kv.Get(meta.DatasetKey("ds")); stamp == nil || !bytes.Equal(after, stamp) {
		t.Errorf("dataset record %x once the loser returned, %x when the winner had: the loser stamped", after, stamp)
	}
	for _, name := range files[win] {
		if got, err := getFile(s, "ds", name); err != nil || string(got) != "bytes-of-"+name {
			t.Errorf("the winner's %s reads %q, %v", name, got, err)
		}
	}
}

// errDiskFull is how failingPuts fails.
var errDiskFull = errors.New("disk full")

// failingPuts is a Memory whose Put fails, as a full or broken disk's does.
type failingPuts struct{ *objstore.Memory }

func (failingPuts) Put(string, []byte) error { return errDiskFull }

// TestIngestFailedPutWritesNoMetadata: the object is stored first, so an
// ingest whose object store refuses the chunk writes no file record, no
// chunk record and no stamp.
func TestIngestFailedPutWritesNoMetadata(t *testing.T) {
	kv := kvstore.NewLocal()
	s := New(kv, failingPuts{objstore.NewMemory()}, func() int64 { return 1 })
	if _, err := s.Ingest("ds", sealOne(t, sameIDs(), s.nowNS, "a", "aa", "b", "bb")); !errors.Is(err, errDiskFull) {
		t.Fatalf("ingest over a failing object store: %v, want its error", err)
	}
	if n, err := kv.DBSize(); err != nil || n != 0 {
		t.Errorf("a failed ingest left %d keys (%v)", n, err)
	}
}

// viewStack is a server holding one dataset "ds" of chunks × perChunk
// one-byte files spread over 100 directories, class000 … class099.
func viewStack(b *testing.B, chunks, perChunk int) *Server {
	s, _, _, gen := testStack()
	for c := range chunks {
		cb := chunk.NewBuilder(1<<16, gen, s.nowNS)
		for f := range perChunk {
			i := c*perChunk + f
			if _, err := cb.Add(fmt.Sprintf("class%03d/img%06d.jpg", i%100, i), []byte{byte(i)}); err != nil {
				b.Fatal(err)
			}
		}
		_, enc, err := cb.Seal()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Ingest("ds", enc); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// lsView lists class007 of the view dsl.ls answers from, as its handler
// does, and returns how many entries it holds.
func lsView(b *testing.B, s *Server) int {
	v, err := s.viewOf("ds")
	if err != nil {
		b.Fatal(err)
	}
	ents, err := v.snap.List("class007")
	if err != nil {
		b.Fatal(err)
	}
	return len(ents)
}

// liveHeap returns the bytes of the heap that are still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// BenchmarkCommittedView reads the committed view of 100 000 files in 500
// chunks on kvstore.Local, as each of its readers does: a purge with
// nothing to do (purge's scan); a dsl.ls of one directory of 1 000 files
// from a fresh build (ls), from the view cached at the dataset's stamp
// (ls-warm), and right after a change has moved the stamp
// (ls-after-change); and dsl.snapshot's cached encoding (snapshot-warm).
func BenchmarkCommittedView(b *testing.B) {
	const chunks, perChunk = 500, 200
	const perDir = chunks * perChunk / 100
	s := viewStack(b, chunks, perChunk)
	b.Run("purge", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if holed, _, err := s.holedChunks("ds"); err != nil || len(holed) != 0 {
				b.Fatalf("%d holed chunks, %v", len(holed), err)
			}
		}
	})
	b.Run("ls", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			snap, err := s.BuildSnapshot("ds")
			if err != nil {
				b.Fatal(err)
			}
			if ents, err := snap.List("class007"); err != nil || len(ents) != perDir {
				b.Fatalf("%d entries, %v", len(ents), err)
			}
		}
	})
	benchWarmView(b, s)
	b.Run("ls-after-change", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if err := s.stamp("ds"); err != nil {
				b.Fatal(err)
			}
			if n := lsView(b, s); n != perDir {
				b.Fatalf("%d entries, want %d", n, perDir)
			}
		}
	})
}

// benchWarmView runs the ls-warm and snapshot-warm rows: dsl.ls and
// dsl.snapshot while the dataset's stamp holds. The heap that the first
// call's build and the first dsl.snapshot's encoding leave reachable is
// the cached entry's size, reported as entry-MiB.
func benchWarmView(b *testing.B, s *Server) {
	before := liveHeap()
	want := lsView(b, s)
	v, err := s.viewOf("ds")
	if err != nil {
		b.Fatal(err)
	}
	v.encode()
	entryMiB := float64(liveHeap()-before) / (1 << 20)
	b.Run("ls-warm", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if n := lsView(b, s); n != want {
				b.Fatalf("%d entries, want %d", n, want)
			}
		}
		b.ReportMetric(entryMiB, "entry-MiB")
	})
	b.Run("snapshot-warm", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			v, err := s.viewOf("ds")
			if err != nil || len(v.encode()) == 0 {
				b.Fatalf("no encoding, %v", err)
			}
		}
	})
}

// BenchmarkServerWarmView is the allocation guard's pin on the cached
// view: dsl.ls and dsl.snapshot of 16 384 files while the stamp holds. A
// call that rebuilt the view would allocate ≈ 2 per file.
func BenchmarkServerWarmView(b *testing.B) {
	benchWarmView(b, viewStack(b, 128, 128))
}
