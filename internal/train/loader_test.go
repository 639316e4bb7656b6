package train

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"diesel/internal/chunk"
	"diesel/internal/epoch"
	"diesel/internal/meta"
	"diesel/internal/shuffle"
)

// epochFixture builds a snapshot of nChunks×filesPerChunk files and a
// Source serving each file's path as its payload (failing on failPath).
func epochFixture(nChunks, filesPerChunk int, failPath string) (*meta.Snapshot, epoch.Source) {
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
	return snap, planSource{snap: snap, failPath: failPath}
}

type planSource struct {
	snap     *meta.Snapshot
	failPath string
}

func (s planSource) ReadGroup(_ context.Context, plan *shuffle.Plan, g int) ([][]byte, error) {
	span := plan.Groups[g]
	out := make([][]byte, span.End-span.Start)
	for pos := span.Start; pos < span.End; pos++ {
		name := s.snap.FileName(int(plan.Files[pos]))
		if name == s.failPath {
			return nil, errors.New("injected fetch failure")
		}
		out[pos-span.Start] = []byte(name)
	}
	return out, nil
}

// TestEpochLoaderBatches streams an epoch.Reader through the EpochLoader
// and checks batch boundaries and order fidelity.
func TestEpochLoaderBatches(t *testing.T) {
	snap, src := epochFixture(6, 5, "")
	plan := shuffle.ChunkWisePlan(snap, 3, 2)
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

// TestEpochLoaderDefaultBatchSize checks the documented default of 32.
func TestEpochLoaderDefaultBatchSize(t *testing.T) {
	snap, src := epochFixture(8, 5, "")
	l := NewEpochLoader(epoch.NewReader(shuffle.ChunkWisePlan(snap, 1, 2), snap, src))
	defer l.Close()
	b, ok, err := l.Next()
	if err != nil || !ok {
		t.Fatalf("Next: ok=%v err=%v", ok, err)
	}
	if len(b.Paths) != 32 {
		t.Fatalf("default batch size: got %d, want 32", len(b.Paths))
	}
}

// TestEpochLoaderClosed checks that closing the loader — twice is fine —
// maps to ErrLoaderClosed rather than a data error.
func TestEpochLoaderClosed(t *testing.T) {
	snap, src := epochFixture(6, 5, "")
	r := epoch.NewReader(shuffle.ChunkWisePlan(snap, 3, 2), snap, src, epoch.WithWindow(1))
	l := NewEpochLoader(r, WithBatchSize(4))
	if _, ok, err := l.Next(); err != nil || !ok {
		t.Fatalf("first batch: ok=%v err=%v", ok, err)
	}
	l.Close()
	l.Close()
	if _, _, err := l.Next(); err != ErrLoaderClosed {
		t.Fatalf("Next after Close: %v, want ErrLoaderClosed", err)
	}
}

// TestEpochLoaderErrorEndsEpoch: a fetch failure surfaces from Next as that
// error, not as a short epoch or as ErrLoaderClosed.
func TestEpochLoaderErrorEndsEpoch(t *testing.T) {
	snap, src := epochFixture(6, 5, "c03/f02")
	r := epoch.NewReader(shuffle.ChunkWisePlan(snap, 3, 2), snap, src, epoch.WithWindow(2))
	l := NewEpochLoader(r, WithBatchSize(4))
	defer l.Close()
	for {
		_, ok, err := l.Next()
		if err != nil {
			if !strings.Contains(err.Error(), "injected fetch failure") {
				t.Fatalf("fetch failure surfaced as %v", err)
			}
			return
		}
		if !ok {
			t.Fatal("injected failure never surfaced")
		}
	}
}

// TestEpochLoaderEmptyPlan: an epoch with no files ends at once.
func TestEpochLoaderEmptyPlan(t *testing.T) {
	snap, src := epochFixture(0, 0, "")
	l := NewEpochLoader(epoch.NewReader(shuffle.ChunkWisePlan(snap, 1, 2), snap, src))
	defer l.Close()
	if _, ok, err := l.Next(); ok || err != nil {
		t.Fatalf("empty epoch: ok=%v err=%v", ok, err)
	}
}

// TestEpochLoaderFullPipelineWithModel wires the loader to the Figure 13
// model: five chunk-wise shuffled epochs of training consuming loader
// batches.
func TestEpochLoaderFullPipelineWithModel(t *testing.T) {
	ds := MakeClusters(640, 8, 4, 0.5, 5)
	snap, src := epochFixture(20, 32, "")
	idx := map[string]int32{}
	for i := range snap.NumFiles() {
		idx[snap.FileName(i)] = int32(i)
	}
	m := newSoftmax(ds.Dim, ds.Classes)
	for ep := range 5 {
		plan := shuffle.ChunkWisePlan(snap, int64(ep), 5)
		l := NewEpochLoader(epoch.NewReader(plan, snap, src, epoch.WithWindow(2)))
		for {
			b, ok, err := l.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			batch := make([]int32, len(b.Paths))
			for j := range b.Paths {
				batch[j] = idx[string(b.Data[j])]
			}
			m.TrainBatch(ds, batch, 0.3)
		}
		l.Close()
	}
	if acc := TopKAccuracy(m, ds, 1); acc < 0.9 {
		t.Errorf("pipeline-trained accuracy = %.3f", acc)
	}
}
