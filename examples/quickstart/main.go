// Quickstart: stand up a complete in-process DIESEL deployment, write a
// small dataset through libDIESEL, download the metadata snapshot, and
// read files back three ways — the custom API, a batched read through
// the request executor, and the POSIX-style FUSE view.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"

	"diesel/internal/client"
	"diesel/internal/core"
	"diesel/internal/fuselite"
)

func main() {
	// 1. Deploy: 2 KV metadata nodes, 1 DIESEL server, in-memory chunks.
	dep, err := core.Deploy(core.Config{KVNodes: 2, DieselServers: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()
	fmt.Printf("deployed DIESEL: servers=%v registry=%s\n", dep.ServerAddrs(), dep.RegistryAddr())

	// 2. Write a dataset (DL_connect / DL_put / DL_flush). Small files
	//    aggregate into chunks client-side before they reach the server.
	w, err := dep.NewClient("demo", 0)
	if err != nil {
		log.Fatal(err)
	}
	wds := w.DefaultDataset() // the handle Connect opened on "demo"
	for class := range 3 {
		for i := range 40 {
			path := fmt.Sprintf("train/class%d/img%03d.jpg", class, i)
			data := fmt.Appendf(nil, "image bytes for %s", path)
			if err := wds.Put(path, data); err != nil {
				log.Fatal(err)
			}
		}
	}
	if err := wds.Flush(); err != nil {
		log.Fatal(err)
	}

	// 3. Save the metadata snapshot to disk (DL_save_meta), then load it
	//    in a fresh client (DL_load_meta): all metadata ops become local.
	//    The snapshot is where a dataset's counts come from.
	snapPath := filepath.Join(mustTempDir(), "demo.snap")
	if err := wds.SaveMeta(snapPath); err != nil {
		log.Fatal(err)
	}
	snap := wds.Snapshot()
	fmt.Printf("wrote dataset: %d files in %d chunks (%d bytes)\n",
		snap.NumFiles(), len(snap.Chunks), snap.TotalBytes())
	w.Close()

	r, err := dep.NewClient("demo", 1)
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()
	ds := r.DefaultDataset()
	if err := ds.LoadMeta(snapPath); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded snapshot: %s\n", ds.Snapshot())

	// 4. Metadata from the snapshot (DL_ls, DL_stat) — no server traffic.
	ents, err := ds.Ls("train")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("train/ contains %d class directories\n", len(ents))
	si, err := ds.Stat("train/class1/img007.jpg")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stat train/class1/img007.jpg: %d bytes in chunk %s\n", si.Size, si.ChunkID)

	// 5. Read through the API (DL_get) and the batched request executor.
	ctx := context.Background()
	b, err := ds.Get(ctx, "train/class2/img011.jpg")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DL_get: %q\n", b)
	batch, err := ds.GetBatch(ctx, []string{"train/class0/img000.jpg", "train/class0/img001.jpg", "train/class0/img002.jpg"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batched read returned %d files\n", len(batch))

	// 6. Chunk-wise shuffled epoch order (DL_shuffle).
	plan, err := ds.ShufflePlan(1, 2)
	if err != nil {
		log.Fatal(err)
	}
	order := plan.Paths(ds.Snapshot())
	fmt.Printf("chunk-wise shuffle: %d files in %d groups, first 3: %v\n",
		len(order), len(plan.Groups), order[:3])

	// 7. The same dataset as a POSIX filesystem (DIESEL-FUSE).
	fsys, err := fuselite.Mount(fuselite.Config{Clients: []*client.Client{r}})
	if err != nil {
		log.Fatal(err)
	}
	count := 0
	fs.WalkDir(fsys, ".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			count++
		}
		return err
	})
	data, err := fsys.ReadFile("train/class0/img000.jpg")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("FUSE view: walked %d files; read %d bytes via POSIX path\n", count, len(data))
}

func mustTempDir() string {
	d, err := os.MkdirTemp("", "diesel-quickstart")
	if err != nil {
		log.Fatal(err)
	}
	return d
}
