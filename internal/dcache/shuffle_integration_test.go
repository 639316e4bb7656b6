package dcache

import (
	"bytes"
	"context"
	"testing"

	"diesel/internal/shuffle"
)

// TestChunkWiseOrderBoundsCacheThrash is the functional heart of §4.3:
// when the dataset does not fit in the cache, reading in chunk-wise
// shuffled order touches at most one group of chunks at a time, so a
// cache sized for a group serves almost every read; a full dataset
// shuffle hops chunks randomly and thrashes the same cache.
func TestChunkWiseOrderBoundsCacheThrash(t *testing.T) {
	// ~25 chunks of 4 KiB; cache capacity of ~3 chunks.
	f := newFixture(t, 400, 256, []string{"solo"}, OnDemand, NewSharedCache(3*4096+512, 0, nil))
	p := f.peers[0]
	cl := f.cls[0]
	snap := cl.DefaultDataset().Snapshot()
	if len(snap.Chunks) < 15 {
		t.Fatalf("dataset packed into only %d chunks", len(snap.Chunks))
	}

	readAll := func(order []string) uint64 {
		before := p.Stats.ChunkLoads.Load()
		for _, path := range order {
			b, err := cl.DefaultDataset().Get(context.Background(), path)
			if err != nil {
				t.Fatalf("Get(%q): %v", path, err)
			}
			if want := f.files[path]; !bytes.Equal(b, want) {
				t.Fatalf("content mismatch at %q", path)
			}
		}
		return p.Stats.ChunkLoads.Load() - before
	}

	p.DropAll()
	chunkWiseLoads := readAll(shuffle.ChunkWise(snap, 7, 2))

	p.DropAll()
	fullShuffleLoads := readAll(shuffle.Dataset(snap, 7))

	nChunks := uint64(len(snap.Chunks))
	if chunkWiseLoads > nChunks+nChunks/4 {
		t.Errorf("chunk-wise order loaded %d chunks for a %d-chunk dataset; should be ~one load per chunk",
			chunkWiseLoads, nChunks)
	}
	if fullShuffleLoads < 4*chunkWiseLoads {
		t.Errorf("full shuffle loaded %d chunks vs chunk-wise %d; expected heavy thrash under capacity pressure",
			fullShuffleLoads, chunkWiseLoads)
	}
	t.Logf("chunks=%d capacity=3 chunks: chunk-wise loads=%d, full-shuffle loads=%d (%.1fx)",
		nChunks, chunkWiseLoads, fullShuffleLoads, float64(fullShuffleLoads)/float64(chunkWiseLoads))
}

// TestChunkWiseOrderFullyCachedEquivalence: when everything fits, both
// orders are pure cache hits after the first epoch — the "88.12% of the
// fully cached speed" observation degenerates to equality.
func TestChunkWiseOrderFullyCachedEquivalence(t *testing.T) {
	f := newFixture(t, 200, 128, []string{"solo"}, Oneshot, nil)
	p := f.peers[0]
	p.LoadOwned()
	cl := f.cls[0]
	snap := cl.DefaultDataset().Snapshot()

	before := p.Stats.ChunkLoads.Load()
	for _, path := range shuffle.ChunkWise(snap, 3, 4) {
		if _, err := cl.DefaultDataset().Get(context.Background(), path); err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range shuffle.Dataset(snap, 3) {
		if _, err := cl.DefaultDataset().Get(context.Background(), path); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Stats.ChunkLoads.Load() - before; got != 0 {
		t.Errorf("fully cached epochs still loaded %d chunks", got)
	}
}
