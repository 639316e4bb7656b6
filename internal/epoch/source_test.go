package epoch

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"diesel/internal/chunk"
	"diesel/internal/meta"
	"diesel/internal/shuffle"
)

// fakeChunkClient implements ChunkClient from in-memory encoded chunks,
// recording batch-fallback calls.
type fakeChunkClient struct {
	chunks map[string][]byte // chunk ID string -> encoded blob
	files  map[string][]byte // path -> contents, for the batch fallback

	mu         sync.Mutex
	batchCalls [][]string
}

func (c *fakeChunkClient) GetChunk(ctx context.Context, id string) ([]byte, error) {
	blob, ok := c.chunks[id]
	if !ok {
		return nil, fmt.Errorf("no such chunk %s", id)
	}
	return blob, nil
}

func (c *fakeChunkClient) GetBatch(ctx context.Context, paths []string) ([][]byte, error) {
	c.mu.Lock()
	c.batchCalls = append(c.batchCalls, append([]string(nil), paths...))
	c.mu.Unlock()
	out := make([][]byte, len(paths))
	for i, p := range paths {
		out[i] = c.files[p]
	}
	return out, nil
}

// buildChunkFixture encodes one real chunk holding the named files and
// returns the blob plus each file's payload offset.
func buildChunkFixture(t *testing.T, files map[string][]byte, names []string) (chunk.ID, []byte, map[string]uint64) {
	t.Helper()
	gen := chunk.NewIDGenerator(func() uint32 { return 1 })
	b := chunk.NewBuilder(1<<20, gen, func() int64 { return 1 })
	offsets := make(map[string]uint64)
	var off uint64
	for _, name := range names {
		offsets[name] = off
		if _, err := b.Add(name, files[name]); err != nil {
			t.Fatal(err)
		}
		off += uint64(len(files[name]))
	}
	h, encoded, err := b.Seal()
	if err != nil {
		t.Fatal(err)
	}
	return h.ID, encoded, offsets
}

// TestClientSourceOutOfRangeFallsBack is the regression test for the
// stale-metadata bug: a file whose snapshot Offset+Length reaches past the
// chunk payload must degrade to the batched file API (per the documented
// contract), not fail the epoch.
func TestClientSourceOutOfRangeFallsBack(t *testing.T) {
	files := map[string][]byte{
		"d/a": []byte(strings.Repeat("A", 100)),
		"d/b": []byte(strings.Repeat("B", 100)),
	}
	id, blob, offsets := buildChunkFixture(t, files, []string{"d/a", "d/b"})

	b := meta.NewSnapshotBuilder("ds", 1)
	ci := b.AddChunk(id, uint64(len(blob)), 100)
	b.AddFile("d/a", meta.FileMeta{ChunkIdx: ci, Offset: offsets["d/a"], Length: 100})
	// Stale metadata: points 50 bytes past the end of the 200-byte payload.
	b.AddFile("d/b", meta.FileMeta{ChunkIdx: ci, Offset: 150, Length: 100})
	snap := b.Build()
	plan := shuffle.ChunkWisePlan(snap, 1, 1)

	cl := &fakeChunkClient{
		chunks: map[string][]byte{id.String(): blob},
		files:  files,
	}
	fb0 := mChunkFallbacks.Load()
	src := NewClientSource(cl, snap, 2)
	out, err := src.ReadGroup(context.Background(), plan, 0)
	if err != nil {
		t.Fatalf("out-of-range metadata failed the group read: %v", err)
	}
	for pos := range out {
		name := snap.FileName(int(plan.Files[plan.Groups[0].Start+pos]))
		if got, want := string(out[pos]), string(files[name]); got != want {
			t.Errorf("file %q: got %d bytes %q..., want %q...", name, len(got), got[:1], want[:1])
		}
	}
	if got := mChunkFallbacks.Load() - fb0; got != 1 {
		t.Errorf("chunk fallbacks counted %d, want 1", got)
	}
	if len(cl.batchCalls) != 1 || len(cl.batchCalls[0]) != 1 || cl.batchCalls[0][0] != "d/b" {
		t.Errorf("batch fallback calls = %v, want exactly [[d/b]]", cl.batchCalls)
	}
}

// TestClientSourceTruncatedChunkFallsBack: a blob cut short fails
// chunk.Parse, and every file of that chunk rides the batch fallback.
func TestClientSourceTruncatedChunkFallsBack(t *testing.T) {
	files := map[string][]byte{
		"d/a": []byte(strings.Repeat("A", 100)),
		"d/b": []byte(strings.Repeat("B", 100)),
	}
	id, blob, offsets := buildChunkFixture(t, files, []string{"d/a", "d/b"})

	b := meta.NewSnapshotBuilder("ds", 1)
	ci := b.AddChunk(id, uint64(len(blob)), 100)
	b.AddFile("d/a", meta.FileMeta{ChunkIdx: ci, Offset: offsets["d/a"], Length: 100})
	b.AddFile("d/b", meta.FileMeta{ChunkIdx: ci, Offset: offsets["d/b"], Length: 100})
	snap := b.Build()
	plan := shuffle.ChunkWisePlan(snap, 1, 1)

	cl := &fakeChunkClient{
		chunks: map[string][]byte{id.String(): blob[:len(blob)/2]},
		files:  files,
	}
	src := NewClientSource(cl, snap, 2)
	out, err := src.ReadGroup(context.Background(), plan, 0)
	if err != nil {
		t.Fatalf("truncated chunk failed the group read: %v", err)
	}
	for pos := range out {
		name := snap.FileName(int(plan.Files[plan.Groups[0].Start+pos]))
		if string(out[pos]) != string(files[name]) {
			t.Errorf("file %q served wrong bytes", name)
		}
	}
	if len(cl.batchCalls) != 1 || len(cl.batchCalls[0]) != 2 {
		t.Errorf("batch fallback calls = %v, want one call with both files", cl.batchCalls)
	}
}

// countingFileReader serves path-as-payload reads while recording
// concurrency and failing selected paths.
type countingFileReader struct {
	active    atomic.Int64
	maxActive atomic.Int64
	fail      func(path string) bool
}

func (r *countingFileReader) ReadFileContext(ctx context.Context, path string) ([]byte, error) {
	cur := r.active.Add(1)
	defer r.active.Add(-1)
	for {
		m := r.maxActive.Load()
		if cur <= m || r.maxActive.CompareAndSwap(m, cur) {
			break
		}
	}
	if r.fail != nil && r.fail(path) {
		return nil, fmt.Errorf("injected failure")
	}
	return []byte(path), nil
}

// TestCacheSourceBoundsWorkers is the regression test for the
// goroutine-burst bug: a group far larger than parallel must never run
// more than parallel concurrent file reads (the old shape spawned one
// goroutine per file before touching the semaphore).
func TestCacheSourceBoundsWorkers(t *testing.T) {
	snap := buildSnap(4, 64) // one group of 256 files at groupSize=4
	plan := shuffle.ChunkWisePlan(snap, 5, 4)
	fr := &countingFileReader{}
	src := NewCacheSource(fr, snap, 3)
	out, err := src.ReadGroup(context.Background(), plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	span := plan.Groups[0]
	for i, data := range out {
		if want := snap.FileName(int(plan.Files[span.Start+i])); string(data) != want {
			t.Fatalf("slot %d: %q, want %q", i, data, want)
		}
	}
	if got := fr.maxActive.Load(); got > 3 {
		t.Errorf("max concurrent reads %d, want <= parallel=3", got)
	}
}

// viewReader returns the same bytes for every path, allocating nothing.
type viewReader []byte

func (v viewReader) ReadFileContext(context.Context, string) ([]byte, error) { return v, nil }

// TestCacheSourceGroupAllocations: a group read allocates its result, one
// state for its workers, and one goroutine closure per worker beyond the
// calling goroutine, which reads too — no channel, WaitGroup or error
// slice while every read succeeds.
func TestCacheSourceGroupAllocations(t *testing.T) {
	snap := buildSnap(4, 16) // one group of 64 files at groupSize=4
	plan := shuffle.ChunkWisePlan(snap, 5, 4)
	const parallel = 8
	src := NewCacheSource(viewReader("x"), snap, parallel)
	n := testing.AllocsPerRun(200, func() {
		if _, err := src.ReadGroup(context.Background(), plan, 0); err != nil {
			t.Fatal(err)
		}
	})
	if want := float64(parallel + 1); n > want {
		t.Errorf("a group read on %d workers allocates %.1f times, want %.0f", parallel, n, want)
	}
}

// TestCacheSourceJoinsErrors: every failing file is named in the returned
// error (capped), not just the first one encountered.
func TestCacheSourceJoinsErrors(t *testing.T) {
	snap := buildSnap(2, 8)
	plan := shuffle.ChunkWisePlan(snap, 2, 2) // one group, 16 files
	bad := map[string]bool{}
	span := plan.Groups[0]
	for _, pos := range []int{1, 5} {
		bad[snap.FileName(int(plan.Files[span.Start+pos]))] = true
	}
	fr := &countingFileReader{fail: func(p string) bool { return bad[p] }}
	src := NewCacheSource(fr, snap, 4)
	_, err := src.ReadGroup(context.Background(), plan, 0)
	if err == nil {
		t.Fatal("group read succeeded despite failing files")
	}
	for p := range bad {
		if !strings.Contains(err.Error(), p) {
			t.Errorf("joined error %q does not name failing file %q", err, p)
		}
	}
}

// TestCacheSourceCapsJoinedErrors: with more failures than the cap, the
// error still terminates at a bounded size and counts the overflow.
func TestCacheSourceCapsJoinedErrors(t *testing.T) {
	snap := buildSnap(4, 8)
	plan := shuffle.ChunkWisePlan(snap, 6, 4) // one group, 32 files
	fr := &countingFileReader{fail: func(string) bool { return true }}
	src := NewCacheSource(fr, snap, 4)
	_, err := src.ReadGroup(context.Background(), plan, 0)
	if err == nil {
		t.Fatal("group read succeeded despite failing files")
	}
	var joined interface{ Unwrap() []error }
	if !errors.As(err, &joined) {
		t.Fatalf("error %T is not a joined error", err)
	}
	if n := len(joined.Unwrap()); n != maxJoinedReadErrors+1 {
		t.Errorf("joined %d errors, want cap %d + 1 overflow line", n, maxJoinedReadErrors)
	}
	if !strings.Contains(err.Error(), "more file reads failed") {
		t.Errorf("error %q missing the overflow count", err)
	}
}
