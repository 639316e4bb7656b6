package diesel

import (
	"context"
	"fmt"
	"testing"
	"time"

	"diesel/internal/client"
	"diesel/internal/kvstore"
	"diesel/internal/meta"
	"diesel/internal/objstore"
	"diesel/internal/server"
)

// smallReadStack is the stack a snapshot-less reader's small reads cross:
// a reader handle with no snapshot (so Stat is a server call),
// server.NewRPC over loopback TCP, a 2-node kvstore cluster over loopback
// behind it and a Tiered object store that holds every chunk in its fast
// tier. The dataset is nine 256 KiB chunks of 9 KiB files; paths names
// the first file of each of the first eight chunks.
type smallReadStack struct {
	s     *server.Server
	ds    *client.Dataset // the reader's handle
	snap  *meta.Snapshot
	paths []string
}

const smallReadFileSize, smallReadChunk, smallReadBatch = 9 << 10, 256 << 10, 8

func newSmallReadStack(tb testing.TB) *smallReadStack {
	tb.Helper()
	addrs := make([]string, 2)
	for i := range addrs {
		n, err := kvstore.NewServer("127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { n.Close() })
		addrs[i] = n.Addr()
	}
	kv, err := kvstore.DialCluster(addrs, 2)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { kv.Close() })
	store := objstore.NewTiered(nil, objstore.NewMemory(), 64<<20)
	s := server.New(kv, store, func() int64 { return time.Now().UnixNano() })
	rpc, err := server.NewRPC(s, "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { rpc.Close() })
	connect := func() *client.Client {
		cl, err := client.Connect(client.Options{
			User: "bench", Key: "bench", Servers: []string{rpc.Addr()}, Dataset: "batchread",
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
	st := &smallReadStack{s: s, ds: connect().DefaultDataset(), snap: snap, paths: make([]string, smallReadBatch)}
	for ci := range st.paths {
		st.paths[ci] = snap.FileName(int(snap.FilesInChunk(ci)[0]))
		// Only a whole-chunk read fills the fast tier; ranges do not promote.
		if _, err := st.ds.GetChunk(context.Background(), snap.Chunks[ci].ID.String()); err != nil {
			tb.Fatal(err)
		}
	}
	if store.FastBytes() == 0 {
		tb.Fatal("the fast tier is empty after reading every chunk")
	}
	return st
}

// TestSmallReadAllocations pins what one warm small read allocates, per op
// kind, on the whole in-process stack — client, wire, server and both KV
// nodes. A read should allocate what its caller keeps (the response) and
// the per-call bookkeeping that cannot be pooled (the call's context and
// span plumbing), not a copy per layer. Measured: 6, 9, 3 and 53 (9, 12, 4
// and 64 with a goroutine per served request and a string per KV key; 22,
// 24, 7 and 143 with a copy per layer as well). The race detector drops
// pooled items at random, which costs 3 to 6 more on average, so it has
// budgets of its own: the mean over 2000 reads, rounded up.
func TestSmallReadAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback stack")
	}
	st := newSmallReadStack(t)
	ctx := context.Background()
	chunkID := st.snap.Chunks[0].ID.String()
	for _, tc := range []struct {
		name               string
		budget, raceBudget float64
		read               func() error
	}{
		{"GetDirect", 6, 11, func() error {
			b, err := st.ds.GetDirect(ctx, st.paths[0])
			if err == nil && len(b) != smallReadFileSize {
				err = fmt.Errorf("%d bytes", len(b))
			}
			return err
		}},
		{"Stat", 9, 14, func() error {
			fi, err := st.ds.Stat(st.paths[0])
			if err == nil && fi.Size != smallReadFileSize {
				err = fmt.Errorf("size %d", fi.Size)
			}
			return err
		}},
		{"GetChunk", 3, 7, func() error {
			b, err := st.ds.GetChunk(ctx, chunkID)
			if err == nil && uint64(len(b)) != st.snap.Chunks[0].Size {
				err = fmt.Errorf("%d bytes", len(b))
			}
			return err
		}},
		{"GetBatch/8x8", 53, 60, func() error {
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
			read := func() {
				if e := tc.read(); e != nil && err == nil {
					err = e
				}
			}
			read() // warm: connections, pools, the server's chunk shapes
			allocs := testing.AllocsPerRun(200, read)
			if err != nil {
				t.Fatal(err)
			}
			budget := tc.budget
			if raceEnabled {
				budget = tc.raceBudget
			}
			if allocs > budget {
				t.Errorf("%.1f allocs per warm %s, budget %.0f", allocs, tc.name, budget)
			}
		})
	}
}
