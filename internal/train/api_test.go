package train

import (
	"context"
	"fmt"
	"testing"
	"time"

	"diesel/internal/chunk"
	"diesel/internal/epoch"
	"diesel/internal/meta"
	"diesel/internal/shuffle"
)

// TestNewSourceAPI drives the option-based constructor end to end: a
// FetchFunc source, explicit worker/batch/prefetch options, exact order.
func TestNewSourceAPI(t *testing.T) {
	st := &slowStore{latency: 500 * time.Microsecond}
	order := paths(60)
	l := New(FetchFunc(st.fetch), order, WithWorkers(6), WithBatchSize(8), WithPrefetch(16))
	defer l.Close()
	pos := 0
	for {
		b, ok, err := l.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		for i, p := range b.Paths {
			if p != order[pos] {
				t.Fatalf("pos %d: got %q, want %q", pos, p, order[pos])
			}
			if string(b.Data[i]) != "data:"+p {
				t.Fatalf("pos %d: wrong payload %q", pos, b.Data[i])
			}
			pos++
		}
	}
	if pos != len(order) {
		t.Fatalf("consumed %d of %d files", pos, len(order))
	}
	if st.maxActive.Load() > 6 {
		t.Errorf("max active fetches %d exceeds WithWorkers(6)", st.maxActive.Load())
	}
}

// TestNewDefaults checks that New without options applies the same
// defaults the positional constructor documents.
func TestNewDefaults(t *testing.T) {
	st := &slowStore{}
	l := New(FetchFunc(st.fetch), paths(40))
	defer l.Close()
	b, ok, err := l.Next()
	if err != nil || !ok {
		t.Fatalf("Next: ok=%v err=%v", ok, err)
	}
	if len(b.Paths) != 32 {
		t.Fatalf("default batch size: got %d, want 32", len(b.Paths))
	}
}

// epochFixture builds a snapshot, a chunk-wise plan over it, and a Source
// serving each file's path as its payload.
func epochFixture(nChunks, filesPerChunk, groupSize int) (*meta.Snapshot, *shuffle.Plan, epoch.Source) {
	b := meta.NewSnapshotBuilder("ds", 1)
	for c := range nChunks {
		var id chunk.ID
		id[0] = byte(c)
		ci := b.AddChunk(id, 1<<20, 100)
		for f := range filesPerChunk {
			b.AddFile(fmt.Sprintf("c%02d/f%02d", c, f), meta.FileMeta{
				ChunkIdx: ci, Index: uint32(f), Offset: uint64(f * 10), Length: 10,
			})
		}
	}
	snap := b.Build()
	plan := shuffle.ChunkWisePlan(snap, 3, groupSize)
	return snap, plan, planSource{snap: snap}
}

type planSource struct{ snap *meta.Snapshot }

func (s planSource) ReadGroup(_ context.Context, plan *shuffle.Plan, g int) ([][]byte, error) {
	span := plan.Groups[g]
	out := make([][]byte, span.End-span.Start)
	for pos := span.Start; pos < span.End; pos++ {
		out[pos-span.Start] = []byte(s.snap.FileName(int(plan.Files[pos])))
	}
	return out, nil
}

// TestEpochLoaderBatches streams an epoch.Reader through the EpochLoader
// and checks batch boundaries and order fidelity.
func TestEpochLoaderBatches(t *testing.T) {
	snap, plan, src := epochFixture(6, 5, 2)
	r := epoch.NewReader(plan, snap, src, epoch.WithWindow(2))
	l := NewEpochLoader(r, WithBatchSize(7))
	defer l.Close()
	pos, batches := 0, 0
	for {
		b, ok, err := l.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if b.Index != batches {
			t.Fatalf("batch index %d, want %d", b.Index, batches)
		}
		batches++
		for i, p := range b.Paths {
			want := snap.FileName(int(plan.Files[pos]))
			if p != want {
				t.Fatalf("pos %d: got %q, want %q", pos, p, want)
			}
			if string(b.Data[i]) != want {
				t.Fatalf("pos %d: wrong payload", pos)
			}
			pos++
		}
	}
	if pos != snap.NumFiles() {
		t.Fatalf("consumed %d of %d", pos, snap.NumFiles())
	}
	if want := (snap.NumFiles() + 6) / 7; batches != want {
		t.Fatalf("got %d batches, want %d", batches, want)
	}
}

// TestEpochLoaderClosed checks that closing the underlying reader maps to
// ErrLoaderClosed rather than a data error.
func TestEpochLoaderClosed(t *testing.T) {
	snap, plan, src := epochFixture(6, 5, 2)
	r := epoch.NewReader(plan, snap, src, epoch.WithWindow(1))
	l := NewEpochLoader(r, WithBatchSize(4))
	if _, ok, err := l.Next(); err != nil || !ok {
		t.Fatalf("first batch: ok=%v err=%v", ok, err)
	}
	l.Close()
	if _, _, err := l.Next(); err != ErrLoaderClosed {
		t.Fatalf("Next after Close: %v, want ErrLoaderClosed", err)
	}
}
