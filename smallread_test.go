package diesel

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"

	"diesel/internal/client"
	"diesel/internal/core"
	"diesel/internal/meta"
	"diesel/internal/server"
	"diesel/internal/testkit"
)

// smallReadStack is the stack a snapshot-less reader's small reads cross:
// a reader handle with no snapshot (so Stat is a server call), a
// deployment's server over loopback TCP, its 2-node kvstore cluster over
// loopback behind it and a Tiered object store that holds every chunk in
// its fast tier. The dataset is nine 256 KiB chunks of 9 KiB files; paths
// names the first file of each of the first eight chunks.
type smallReadStack struct {
	dep   *core.Deployment
	ds    *client.Dataset // the reader's handle
	snap  *meta.Snapshot
	paths []string
}

const smallReadFileSize, smallReadChunk, smallReadBatch = 9 << 10, 256 << 10, 8

func newSmallReadStack(tb testing.TB) *smallReadStack {
	tb.Helper()
	dep, err := core.Deploy(core.Config{KVNodes: 2, SSDCacheBytes: 64 << 20})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(dep.Close)
	connect := func() *client.Client {
		cl, err := client.Connect(client.Options{
			User: "bench", Key: "bench", Servers: dep.ServerAddrs(), Dataset: "batchread",
			ChunkTarget: smallReadChunk,
		})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { cl.Close() })
		return cl
	}
	w := connect().DefaultDataset()
	data := randBytes(smallReadFileSize, 5)
	for i := range (smallReadBatch + 1) * smallReadChunk / smallReadFileSize {
		if err := w.Put(fmt.Sprintf("c%03d/f%06d.bin", i%100, i), data); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	snap, err := w.DownloadSnapshot()
	if err != nil || len(snap.Chunks) < smallReadBatch {
		tb.Fatalf("snapshot: %v, %d chunks", err, len(snap.Chunks))
	}
	st := &smallReadStack{dep: dep, ds: connect().DefaultDataset(), snap: snap, paths: make([]string, smallReadBatch)}
	for ci := range st.paths {
		st.paths[ci] = snap.FileName(int(snap.FilesInChunk(ci)[0]))
		// Only a whole-chunk read fills the fast tier; ranges do not promote.
		if _, err := st.ds.GetChunk(context.Background(), snap.Chunks[ci].ID.String()); err != nil {
			tb.Fatal(err)
		}
	}
	if st.cache(tb).FastBytes == 0 {
		tb.Fatal("the fast tier is empty after reading every chunk")
	}
	return st
}

// cache reads the server's /debug/cache answer: the fast tier's bytes and
// its hit and miss counts.
func (st *smallReadStack) cache(tb testing.TB) server.CacheDebug {
	tb.Helper()
	rec := httptest.NewRecorder()
	st.dep.Server().CacheHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/cache", nil))
	var c server.CacheDebug
	if err := json.Unmarshal(rec.Body.Bytes(), &c); err != nil {
		tb.Fatal(err)
	}
	return c
}

// The allocation tables of one warm small read per op kind, on the whole
// in-process stack: client, wire, server and both KV nodes. A read should
// allocate what its caller keeps (the response) and the per-call
// bookkeeping that cannot be pooled, not a copy per layer. With a
// goroutine per served request and a string per KV key the four read 9,
// 12, 4 and 64 allocs/op; with a copy per layer as well, 22, 24, 7 and
// 143.
var (
	getDirectTable = testkit.Table{
		Sites: map[string]float64{
			"wire.readFrame ← wire.(*Client).readLoop":                    2, // the file the caller keeps, the KV node's answer
			"wire.(*Decoder).String ← server.(*RPCServer).register.func2": 2, // the request's dataset and path
			"meta.FileKey ← server.(*Server).stat":                        1,
			"wire.(*Decoder).String ← meta.DecodeFileRecord":              1,
		},
		Other:  0.25,
		Allocs: 6.25,
		Bytes:  10600,
	}
	statTable = testkit.Table{
		Sites: map[string]float64{
			"wire.(*Decoder).String ← server.(*RPCServer).register.func5": 2,
			"wire.readFrame ← wire.(*Client).readLoop":                    2,
			"wire.(*Decoder).String ← meta.DecodeFileRecord":              2, // one on each side of the call
			"meta.FileKey ← server.(*Server).stat":                        1,
			"wire.NewEncoder ← meta.(*FileRecord).Encode":                 1,
			"chunk.ID.String ← client.(*Dataset).Stat":                    1,
		},
		Other:  0.25,
		Allocs: 9.25,
		Bytes:  380,
	}
	getChunkTable = testkit.Table{
		Sites: map[string]float64{
			"wire.readFrame ← wire.(*Client).readLoop":                    1, // the chunk the caller keeps
			"server.ObjectKey ← server.(*Server).GetChunkPooled":          1,
			"wire.(*Decoder).String ← server.(*RPCServer).register.func4": 1,
		},
		Other:  0.75, // a chunk per call runs a GC cycle every few calls, and pools refill
		Allocs: 3.75,
		Bytes:  297000,
	}
	getBatchTable = testkit.Table{
		Sites: map[string]float64{
			"server.(*Server).getFiles ← server.(*RPCServer).register.func3":   16.5, // the executor's one buffer, its tables and a goroutine per group but one
			"meta.FileKey ← server.(*Server).getFiles":                         8,
			"wire.(*Decoder).String ← meta.DecodeFileRecord":                   8,
			"wire.(*Decoder).String ← wire.(*Decoder).StringSlice":             8,
			"kvstore.(*Cluster).MGetContext ← server.(*Server).getFiles":       5,
			"wire.readFrame ← wire.(*Client).readLoop":                         2, // the response the files are windows into
			"wire.(*Decoder).StringSlice ← server.(*RPCServer).register.func3": 1,
			"wire.NewEncoder ← kvstore.(*Server).mget":                         1,
			"wire.(*Decoder).String ← server.(*RPCServer).register.func3":      1,
			"wire.(*Encoder).Uint32 ← server.(*RPCServer).register.func3":      1,
			"client.splitBatch ← client.(*Dataset).GetBatch":                   1,
		},
		Other:  0.75,
		Allocs: 53.75,
		Bytes:  176000,
	}
)

// TestSmallReadAllocations holds each warm small read to its table, and
// every range read of the batch to a fast-tier hit.
func TestSmallReadAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback stack")
	}
	st := newSmallReadStack(t)
	ctx := context.Background()
	chunkID := st.snap.Chunks[0].ID.String()
	for _, tc := range []struct {
		name  string
		table testkit.Table
		read  func() error
	}{
		{"GetDirect", getDirectTable, func() error {
			b, err := st.ds.GetDirect(ctx, st.paths[0])
			if err == nil && len(b) != smallReadFileSize {
				err = fmt.Errorf("%d bytes", len(b))
			}
			return err
		}},
		{"Stat", statTable, func() error {
			fi, err := st.ds.Stat(st.paths[0])
			if err == nil && fi.Size != smallReadFileSize {
				err = fmt.Errorf("size %d", fi.Size)
			}
			return err
		}},
		{"GetChunk", getChunkTable, func() error {
			b, err := st.ds.GetChunk(ctx, chunkID)
			if err == nil && uint64(len(b)) != st.snap.Chunks[0].Size {
				err = fmt.Errorf("%d bytes", len(b))
			}
			return err
		}},
		{"GetBatch/8x8", getBatchTable, func() error {
			got, err := st.ds.GetBatch(ctx, st.paths)
			for i := range got {
				if err == nil && len(got[i]) != smallReadFileSize {
					err = fmt.Errorf("%s: %d bytes", st.paths[i], len(got[i]))
				}
			}
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			misses := st.cache(t).FastMisses
			sites := testkit.Sites(2000, func() {
				if e := tc.read(); e != nil && err == nil {
					err = e
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if n := st.cache(t).FastMisses - misses; n != 0 {
				t.Errorf("%d reads missed the fast tier", n)
			}
			testkit.Check(t, tc.table, sites)
		})
	}
}
