package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"diesel/internal/objstore"
)

// TestPurgeAfterFullyDeletedChunk reproduces the dlcmd sequence observed
// during verification: write a big chunk, write a small chunk, delete the
// small chunk's only file, purge, then delete one file from the big
// chunk. The big chunk must survive throughout.
func TestPurgeAfterFullyDeletedChunk(t *testing.T) {
	d := deploy(t, Config{
		ObjStoreDir:   t.TempDir(),
		SSDCacheBytes: 10_000_000,
	})

	// Chunk A: 500 files via one client.
	w, err := d.NewClient("demo", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 500 {
		if err := w.DefaultDataset().Put(fmt.Sprintf("train/c%02d/f%04d.bin", i%10, i), []byte("datadata")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(1100 * time.Millisecond) // separate wall-clock second, as in the CLI session

	// Chunk B: one file via a fresh client (a separate dlcmd process).
	w2, err := d.NewClient("demo", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.DefaultDataset().Put("docs/hello.txt", []byte("hello from verify")); err != nil {
		t.Fatal(err)
	}
	w2.Close()

	c, err := d.NewClient("demo", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.DefaultDataset().Delete("docs/hello.txt"); err != nil {
		t.Fatal(err)
	}
	if err := c.DefaultDataset().Purge(); err != nil {
		t.Fatal(err)
	}
	snap, err := c.DefaultDataset().DownloadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumFiles() != 500 || len(snap.Chunks) != 1 {
		t.Fatalf("after purge: %v", snap)
	}
	if _, err := c.DefaultDataset().Get(context.Background(), "train/c07/f0007.bin"); err != nil {
		t.Fatalf("read after purge: %v", err)
	}

	// Now the second deletion (probe 4 in the CLI session).
	if err := c.DefaultDataset().Delete("train/c01/f0011.bin"); err != nil {
		t.Fatal(err)
	}
	snap, err = c.DefaultDataset().DownloadSnapshot()
	if err != nil || snap.NumFiles() != 499 || len(snap.Chunks) != 1 {
		t.Fatalf("after rm: %v, %v", snap, err)
	}
	if _, err := c.DefaultDataset().Get(context.Background(), "train/c07/f0007.bin"); err != nil {
		t.Fatalf("read after rm: %v", err)
	}
	_ = objstore.Memory{}
}
