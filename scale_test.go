package diesel

// Scale test: the paper's evaluation uses datasets of 1.28 M – 9 M files
// (§6.1 "hundreds of millions of files with random contents"). This test
// runs the full stack at the largest size that stays fast on one core —
// 60 k files through real chunking, ingest, snapshot, shuffle and
// sampled verified reads — to catch anything that only breaks past toy
// sizes (quadratic paths, fixed-size assumptions, map pressure).

import (
	"testing"
	"time"

	"diesel/internal/core"
	"diesel/internal/shuffle"
	"diesel/internal/trace"
)

func TestScaleSixtyThousandFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	dep, err := core.Deploy(core.Config{KVNodes: 2, DieselServers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	spec := trace.CIFARLike(1) // 60k files, ~3 KB each, 10 classes
	start := time.Now()
	if err := trace.Write(spec, func(w int) (trace.Putter, error) {
		c, err := dep.NewClient(spec.Name, 200+w)
		if err != nil {
			return nil, err
		}
		return c.DefaultDataset(), nil
	}, 4); err != nil {
		t.Fatal(err)
	}
	writeTime := time.Since(start)

	cl, err := dep.NewClient(spec.Name, 300)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start = time.Now()
	snap, err := cl.DefaultDataset().DownloadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	snapTime := time.Since(start)
	if snap.NumFiles() != spec.NumFiles {
		t.Fatalf("snapshot has %d files, want %d", snap.NumFiles(), spec.NumFiles)
	}
	if len(snap.Chunks) < 40 { // ~184 MB / 4 MB
		t.Errorf("%d chunks; chunking suspicious", len(snap.Chunks))
	}

	// Chunk-wise shuffle over the full dataset: permutation + group bound.
	start = time.Now()
	plan := shuffle.ChunkWisePlan(snap, 1, 30)
	shuffleTime := time.Since(start)
	if plan.NumFiles() != spec.NumFiles {
		t.Fatalf("plan covers %d files", plan.NumFiles())
	}
	if plan.WorkingSetChunks() > 30 {
		t.Errorf("working set %d > group size", plan.WorkingSetChunks())
	}

	// Sampled verified reads across the whole index range, batched.
	var order []int
	for i := 0; i < spec.NumFiles; i += 997 {
		order = append(order, i)
	}
	start = time.Now()
	if err := trace.ReadOrder(spec, func(int) (trace.Getter, error) { return cl.DefaultDataset(), nil }, 4, order); err != nil {
		t.Fatal(err)
	}
	readTime := time.Since(start)

	t.Logf("60k files: write=%v snapshot=%v (%d chunks) shuffle=%v sampled-reads(%d)=%v",
		writeTime, snapTime, len(snap.Chunks), shuffleTime, len(order), readTime)
	if writeTime > 2*time.Minute || snapTime > 30*time.Second {
		t.Errorf("scale regression: write=%v snapshot=%v", writeTime, snapTime)
	}
}
