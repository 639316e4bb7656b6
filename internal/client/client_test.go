package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diesel/internal/chunk"
	"diesel/internal/kvstore"
	"diesel/internal/meta"
	"diesel/internal/objstore"
	"diesel/internal/server"
	"diesel/internal/wire"
)

// startServers launches n DIESEL RPC servers sharing one backend stack.
func startServers(t *testing.T, n int) []string {
	t.Helper()
	core := server.NewLocalStack()
	addrs := make([]string, n)
	for i := range n {
		rpc, err := server.NewRPC(core, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rpc.Close() })
		addrs[i] = rpc.Addr()
	}
	return addrs
}

func connect(t *testing.T, addrs []string, dataset string) *Client {
	t.Helper()
	c, err := Connect(Options{
		User: "tester", Key: "secret",
		Servers: addrs, Dataset: dataset, ChunkTarget: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// writeDataset puts n files of size sz and flushes, returning the contents.
func writeDataset(t *testing.T, c *Client, n, sz int) map[string][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	files := make(map[string][]byte, n)
	for i := range n {
		name := fmt.Sprintf("train/cls%02d/img%04d.jpg", i%8, i)
		data := make([]byte, sz)
		rng.Read(data)
		files[name] = data
		if err := c.DefaultDataset().Put(name, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.DefaultDataset().Flush(); err != nil {
		t.Fatal(err)
	}
	return files
}

func TestConnectValidation(t *testing.T) {
	if _, err := Connect(Options{Dataset: "x"}); err == nil {
		t.Error("no servers accepted")
	}
	addrs := startServers(t, 1)
	if _, err := Connect(Options{Servers: addrs}); err == nil {
		t.Error("no dataset accepted")
	}
	if _, err := Connect(Options{Servers: []string{"127.0.0.1:1"}, Dataset: "x"}); err == nil {
		t.Error("dead server accepted")
	}
}

func TestPutFlushGet(t *testing.T) {
	addrs := startServers(t, 1)
	c := connect(t, addrs, "imagenet")
	files := writeDataset(t, c, 100, 300)
	for name, want := range files {
		got, err := c.DefaultDataset().Get(context.Background(), name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Get(%q): mismatch", name)
		}
	}
	if _, err := c.DefaultDataset().Get(context.Background(), "train/none.jpg"); err == nil {
		t.Error("missing file read succeeded")
	}
}

func TestGetBatch(t *testing.T) {
	addrs := startServers(t, 1)
	c := connect(t, addrs, "ds")
	files := writeDataset(t, c, 60, 256)
	var paths []string
	for n := range files {
		paths = append(paths, n)
	}
	paths = append(paths, "nope")
	out, err := c.DefaultDataset().GetBatch(context.Background(), paths)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range paths {
		if p == "nope" {
			if out[i] != nil {
				t.Error("missing file non-nil in batch")
			}
			continue
		}
		if !bytes.Equal(out[i], files[p]) {
			t.Fatalf("batch mismatch at %q", p)
		}
	}
}

func TestMultiServerRoundRobin(t *testing.T) {
	addrs := startServers(t, 3)
	c := connect(t, addrs, "ds")
	files := writeDataset(t, c, 90, 128)
	for name, want := range files {
		got, err := c.DefaultDataset().Get(context.Background(), name)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("multi-server Get(%q): %v", name, err)
		}
	}
}

func TestStatAndLs(t *testing.T) {
	addrs := startServers(t, 1)
	c := connect(t, addrs, "ds")
	writeDataset(t, c, 32, 100)

	// Without snapshot: server path.
	si, err := c.DefaultDataset().Stat("train/cls03/img0003.jpg")
	if err != nil {
		t.Fatal(err)
	}
	if si.Size != 100 || si.ChunkID == "" {
		t.Errorf("Stat = %+v", si)
	}
	ents, err := c.DefaultDataset().Ls("train")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 8 {
		t.Fatalf("Ls(train) = %d entries", len(ents))
	}
	if c.Stats.ServerMetaOps.Load() == 0 {
		t.Error("server meta ops not counted")
	}

	// With snapshot: local path.
	if _, err := c.DefaultDataset().DownloadSnapshot(); err != nil {
		t.Fatal(err)
	}
	before := c.Stats.ServerMetaOps.Load()
	si2, err := c.DefaultDataset().Stat("train/cls03/img0003.jpg")
	if err != nil || si2.Size != 100 {
		t.Fatalf("snapshot Stat: %+v, %v", si2, err)
	}
	ents2, err := c.DefaultDataset().Ls("train")
	if err != nil || len(ents2) != len(ents) {
		t.Fatalf("snapshot Ls: %d entries, %v", len(ents2), err)
	}
	if c.Stats.ServerMetaOps.Load() != before {
		t.Error("snapshot ops went to the server")
	}
}

func TestSaveLoadMeta(t *testing.T) {
	addrs := startServers(t, 1)
	c := connect(t, addrs, "ds")
	files := writeDataset(t, c, 40, 200)

	snapPath := filepath.Join(t.TempDir(), "ds.snap")
	if err := c.DefaultDataset().SaveMeta(snapPath); err != nil {
		t.Fatal(err)
	}

	// A second client loads the snapshot from disk.
	c2 := connect(t, addrs, "ds")
	if err := c2.DefaultDataset().LoadMeta(snapPath); err != nil {
		t.Fatal(err)
	}
	if c2.DefaultDataset().Snapshot() == nil || c2.DefaultDataset().Snapshot().NumFiles() != len(files) {
		t.Fatal("snapshot not installed")
	}

	// Mutating the dataset makes the snapshot stale.
	if err := c.DefaultDataset().Put("extra/file.bin", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := c.DefaultDataset().Flush(); err != nil {
		t.Fatal(err)
	}
	c3 := connect(t, addrs, "ds")
	if err := c3.DefaultDataset().LoadMeta(snapPath); !errors.Is(err, meta.ErrStaleSnapshot) {
		t.Fatalf("stale snapshot accepted: %v", err)
	}
}

// TestLoadMetaStaleUnderFrozenClock: a snapshot saved before a delete is
// stale afterwards even when the server's clock has not moved between the
// two, so a client cannot go on listing the deleted file.
func TestLoadMetaStaleUnderFrozenClock(t *testing.T) {
	core := server.New(kvstore.NewLocal(), objstore.NewMemory(), func() int64 { return 1 })
	rpc, err := server.NewRPC(core, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rpc.Close() })
	c := connect(t, []string{rpc.Addr()}, "ds")
	files := writeDataset(t, c, 4, 10)
	snapPath := filepath.Join(t.TempDir(), "ds.snap")
	if err := c.DefaultDataset().SaveMeta(snapPath); err != nil {
		t.Fatal(err)
	}
	for name := range files {
		if err := c.DefaultDataset().Delete(name); err != nil {
			t.Fatal(err)
		}
		break
	}
	c2 := connect(t, []string{rpc.Addr()}, "ds")
	if err := c2.DefaultDataset().LoadMeta(snapPath); !errors.Is(err, meta.ErrStaleSnapshot) {
		t.Fatalf("a snapshot saved before a delete loads: %v; want %v", err, meta.ErrStaleSnapshot)
	}
}

func TestLoadMetaWrongDataset(t *testing.T) {
	addrs := startServers(t, 1)
	c := connect(t, addrs, "ds")
	writeDataset(t, c, 5, 50)
	p := filepath.Join(t.TempDir(), "s.snap")
	if err := c.DefaultDataset().SaveMeta(p); err != nil {
		t.Fatal(err)
	}
	other := connect(t, addrs, "different")
	if err := other.DefaultDataset().LoadMeta(p); err == nil {
		t.Fatal("snapshot for wrong dataset accepted")
	}
}

func TestShuffle(t *testing.T) {
	addrs := startServers(t, 1)
	c := connect(t, addrs, "ds")
	files := writeDataset(t, c, 80, 100)

	if _, err := c.DefaultDataset().ShufflePlan(1, 3); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("shuffle without snapshot: %v", err)
	}
	if _, err := c.DefaultDataset().DownloadSnapshot(); err != nil {
		t.Fatal(err)
	}
	plan, err := c.DefaultDataset().ShufflePlan(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	order := plan.Paths(c.DefaultDataset().Snapshot())
	if len(order) != len(files) {
		t.Fatalf("order has %d files, want %d", len(order), len(files))
	}
	seen := map[string]bool{}
	for _, f := range order {
		if seen[f] {
			t.Fatalf("duplicate %q", f)
		}
		seen[f] = true
	}
	// Reading in shuffled order returns correct contents.
	out, err := c.DefaultDataset().GetBatch(context.Background(), order[:20])
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range order[:20] {
		if !bytes.Equal(out[i], files[p]) {
			t.Fatalf("shuffled read mismatch at %q", p)
		}
	}
}

func TestDeleteAndPurge(t *testing.T) {
	addrs := startServers(t, 1)
	c := connect(t, addrs, "ds")
	files := writeDataset(t, c, 30, 100)
	victim := "train/cls01/img0001.jpg"
	if err := c.DefaultDataset().Delete(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DefaultDataset().Get(context.Background(), victim); err == nil {
		t.Error("deleted file readable")
	}
	if err := c.DefaultDataset().Purge(); err != nil {
		t.Fatal(err)
	}
	for name, want := range files {
		if name == victim {
			continue
		}
		got, err := c.DefaultDataset().Get(context.Background(), name)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("post-purge Get(%q): %v", name, err)
		}
	}
}

func TestDeleteDataset(t *testing.T) {
	addrs := startServers(t, 1)
	c := connect(t, addrs, "ds")
	writeDataset(t, c, 10, 64)
	if err := c.DefaultDataset().DeleteDataset(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DefaultDataset().datasetRecord(); err == nil {
		t.Error("dataset record survived DeleteDataset")
	}
}

func TestCloseFlushesPending(t *testing.T) {
	addrs := startServers(t, 1)
	c, err := Connect(Options{Servers: addrs, Dataset: "ds", ChunkTarget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DefaultDataset().Put("small.bin", []byte("pending")); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2 := connect(t, addrs, "ds")
	got, err := c2.DefaultDataset().Get(context.Background(), "small.bin")
	if err != nil || string(got) != "pending" {
		t.Fatalf("pending write lost: %q, %v", got, err)
	}
}

func TestConcurrentReaders(t *testing.T) {
	addrs := startServers(t, 2)
	c := connect(t, addrs, "ds")
	files := writeDataset(t, c, 64, 128)
	var names []string
	for n := range files {
		names = append(names, n)
	}
	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50 {
				name := names[(w*13+i)%len(names)]
				got, err := c.DefaultDataset().Get(context.Background(), name)
				if err != nil || !bytes.Equal(got, files[name]) {
					t.Errorf("concurrent Get(%q): %v", name, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// fakeReader proves Get routes through an installed Reader, with the
// caller's context.
type fakeReader struct{ hits int }

type readerCtxKey struct{}

func (f *fakeReader) ReadFileContext(ctx context.Context, path string) ([]byte, error) {
	if ctx.Value(readerCtxKey{}) == nil {
		return nil, errors.New("reader did not receive the caller's context")
	}
	f.hits++
	return []byte("from-cache:" + path), nil
}

func TestReaderInterception(t *testing.T) {
	addrs := startServers(t, 1)
	c := connect(t, addrs, "ds")
	writeDataset(t, c, 4, 32)
	fr := &fakeReader{}
	c.DefaultDataset().SetReader(fr)
	got, err := c.DefaultDataset().Get(context.WithValue(context.Background(), readerCtxKey{}, true), "any/path")
	if err != nil || string(got) != "from-cache:any/path" {
		t.Fatalf("reader not used: %q, %v", got, err)
	}
	if fr.hits != 1 {
		t.Errorf("hits = %d", fr.hits)
	}
	// GetDirect bypasses the reader.
	if _, err := c.DefaultDataset().GetDirect(context.Background(), "train/cls00/img0000.jpg"); err != nil {
		t.Errorf("GetDirect through reader: %v", err)
	}
	if fr.hits != 1 {
		t.Error("GetDirect went through the reader")
	}
}

// TestConcurrentWriters exercises the builder mutex: many goroutines Put
// through one context; every file must survive intact.
func TestConcurrentWriters(t *testing.T) {
	addrs := startServers(t, 1)
	c := connect(t, addrs, "ds")
	var wg sync.WaitGroup
	const workers, per = 8, 40
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range per {
				name := fmt.Sprintf("w%d/f%03d", w, i)
				if err := c.DefaultDataset().Put(name, []byte(name)); err != nil {
					t.Errorf("Put(%q): %v", name, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := c.DefaultDataset().Flush(); err != nil {
		t.Fatal(err)
	}
	snap, err := c.DefaultDataset().DownloadSnapshot()
	if err != nil || snap.NumFiles() != workers*per {
		t.Fatalf("snapshot = %v, %v", snap, err)
	}
	for w := range workers {
		for i := range per {
			name := fmt.Sprintf("w%d/f%03d", w, i)
			b, err := c.DefaultDataset().Get(context.Background(), name)
			if err != nil || string(b) != name {
				t.Fatalf("Get(%q) = %q, %v", name, b, err)
			}
		}
	}
}

// TestSameRankClientsDoNotCollide: two contexts sharing a rank (the
// default 0) must never mint the same chunk ID, or one client's chunk
// would overwrite the other's in the object store.
func TestSameRankClientsDoNotCollide(t *testing.T) {
	addrs := startServers(t, 1)
	a := connect(t, addrs, "ds")
	b := connect(t, addrs, "ds") // same Rank (0)
	if err := a.DefaultDataset().Put("from-a", []byte("AAAA")); err != nil {
		t.Fatal(err)
	}
	if err := b.DefaultDataset().Put("from-b", []byte("BBBB")); err != nil {
		t.Fatal(err)
	}
	if err := a.DefaultDataset().Flush(); err != nil {
		t.Fatal(err)
	}
	if err := b.DefaultDataset().Flush(); err != nil {
		t.Fatal(err)
	}
	ga, err := a.DefaultDataset().Get(context.Background(), "from-a")
	if err != nil || string(ga) != "AAAA" {
		t.Fatalf("from-a = %q, %v (chunk overwritten?)", ga, err)
	}
	gb, err := a.DefaultDataset().Get(context.Background(), "from-b")
	if err != nil || string(gb) != "BBBB" {
		t.Fatalf("from-b = %q, %v", gb, err)
	}
	snap, err := a.DefaultDataset().DownloadSnapshot()
	if err != nil || len(snap.Chunks) != 2 {
		t.Errorf("snapshot = %v, %v; want 2 distinct chunks", snap, err)
	}
}

func TestReservedCharacterValidation(t *testing.T) {
	addrs := startServers(t, 1)
	if _, err := Connect(Options{Servers: addrs, Dataset: "bad|name"}); err == nil {
		t.Error("dataset with '|' accepted")
	}
	if _, err := Connect(Options{Servers: addrs, Dataset: "bad/name"}); err == nil {
		t.Error("dataset with '/' accepted")
	}
	c := connect(t, addrs, "ds")
	if err := c.DefaultDataset().Put("weird|file.jpg", []byte("x")); err == nil {
		t.Error("path with '|' accepted")
	}
	if err := c.DefaultDataset().Put("///", []byte("x")); err == nil {
		t.Error("empty-after-clean path accepted")
	}
}

// TestGetChunkIsNeverRecycled: the chunk GetChunk returns is the response
// payload itself, handed over for good — a thousand further reads of mixed
// sizes and kinds on the same single connection must leave it as it was.
func TestGetChunkIsNeverRecycled(t *testing.T) {
	addrs := startServers(t, 1)
	c, err := Connect(Options{
		User: "tester", Key: "secret", Servers: addrs, Dataset: "ds",
		ChunkTarget: 64 << 10, ConnsPerServer: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	files := writeDataset(t, c, 600, 700) // several 64 KiB chunks
	ds := c.DefaultDataset()
	snap, err := ds.DownloadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Chunks) < 3 {
		t.Fatalf("dataset has %d chunks, want several", len(snap.Chunks))
	}
	ctx := context.Background()
	kept, err := ds.GetChunk(ctx, snap.Chunks[0].ID.String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chunk.Parse(kept); err != nil {
		t.Fatalf("fresh chunk does not parse: %v", err)
	}
	before := bytes.Clone(kept)
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	for i := range 1000 {
		switch i % 3 {
		case 0:
			id := snap.Chunks[i%len(snap.Chunks)].ID.String()
			if b, err := ds.GetChunk(ctx, id); err != nil {
				t.Fatal(err)
			} else if _, err := chunk.Parse(b); err != nil {
				t.Fatalf("call %d: chunk %s corrupt: %v", i, id, err)
			}
		case 1:
			name := names[i%len(names)]
			if b, err := ds.GetDirect(ctx, name); err != nil || !bytes.Equal(b, files[name]) {
				t.Fatalf("call %d: GetDirect(%s) wrong (%v)", i, name, err)
			}
		default:
			batch := names[i%(len(names)-8):][:1+i%8]
			out, err := ds.GetBatch(ctx, batch)
			if err != nil {
				t.Fatal(err)
			}
			for j, name := range batch {
				if !bytes.Equal(out[j], files[name]) {
					t.Fatalf("call %d: GetBatch[%s] wrong", i, name)
				}
			}
		}
	}
	if !bytes.Equal(kept, before) {
		t.Error("a chunk returned by GetChunk changed under later calls: its buffer was recycled")
	}
}

// TestThousandFlushesThroughOneBuffer: a handle ships every chunk out of
// the one payload buffer its builder reuses, lent to the socket. A thousand
// Put…Flush cycles of mixed sizes — coalesced small frames and vectored
// chunk-sized ones — over real TCP must each store exactly the bytes that
// were Put: every file of every chunk is read back and compared by CRC.
func TestThousandFlushesThroughOneBuffer(t *testing.T) {
	addrs := startServers(t, 1)
	c, err := Connect(Options{
		User: "tester", Key: "secret", Servers: addrs, Dataset: "ds",
		ChunkTarget: 96 << 10, ConnsPerServer: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ds := c.DefaultDataset()
	rng := rand.New(rand.NewSource(18))
	sums := make(map[string]uint32)
	scratch := make([]byte, 40<<10) // the caller's own buffer, rewritten for every file
	for cycle := range 1000 {
		for i := range 1 + rng.Intn(6) {
			data := scratch[:rng.Intn(len(scratch))>>(cycle%4)]
			rng.Read(data)
			name := fmt.Sprintf("c%04d/f%d", cycle, i)
			sums[name] = crc32.ChecksumIEEE(data)
			if err := ds.Put(name, data); err != nil {
				t.Fatal(err)
			}
		}
		if err := ds.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := ds.DownloadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Chunks) < 1000 {
		t.Fatalf("%d chunks stored for 1000 flushes", len(snap.Chunks))
	}
	seen := 0
	for _, cm := range snap.Chunks {
		blob, err := ds.GetChunk(context.Background(), cm.ID.String())
		if err != nil {
			t.Fatal(err)
		}
		ck, err := chunk.Parse(blob)
		if err != nil {
			t.Fatalf("chunk %s: %v", cm.ID, err)
		}
		for i, e := range ck.Header.Entries {
			data, err := ck.FileAt(i)
			if err != nil {
				t.Fatal(err)
			}
			if want, ok := sums[e.Name]; !ok || crc32.ChecksumIEEE(data) != want {
				t.Fatalf("chunk %s: file %q is not what was Put", cm.ID, e.Name)
			}
			seen++
		}
	}
	if seen != len(sums) {
		t.Errorf("read back %d files of %d written", seen, len(sums))
	}
}

// bitFlipConn damages the last byte of the next Write once armed — for a
// frame that carries a chunk, the last byte of the chunk's payload.
type bitFlipConn struct {
	net.Conn
	armed *atomic.Bool
}

func (c bitFlipConn) Write(b []byte) (int, error) {
	if len(b) > 1000 && c.armed.CompareAndSwap(true, false) {
		b = bytes.Clone(b)
		b[len(b)-1] ^= 0x10
	}
	return c.Conn.Write(b)
}

// TestFlushRejectsPayloadDamagedInFlight: one bit of a lent payload flipped
// between the builder's buffer and the server is a checksum rejection, not
// a stored chunk: no object, no metadata, and the handle keeps working.
func TestFlushRejectsPayloadDamagedInFlight(t *testing.T) {
	obj := objstore.NewMemory()
	core := server.New(kvstore.NewLocal(), obj, func() int64 { return time.Now().UnixNano() })
	rpc, err := server.NewRPC(core, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rpc.Close()
	var armed atomic.Bool
	c, err := Connect(Options{
		User: "tester", Key: "secret", Servers: []string{rpc.Addr()}, Dataset: "ds",
		Dialer: func(addr string) (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			return bitFlipConn{Conn: conn, armed: &armed}, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ds := c.DefaultDataset()
	data := bytes.Repeat([]byte("payload!"), 1000)
	if err := ds.Put("a/file.bin", data); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	err = ds.Flush()
	if !wire.IsRemote(err) || !strings.Contains(err.Error(), chunk.ErrPayloadCRC.Error()) {
		t.Fatalf("Flush of a chunk damaged in flight returned %v, want the server's %q", err, chunk.ErrPayloadCRC)
	}
	if n, _ := core.KVSize(); n != 0 || obj.Len() != 0 {
		t.Fatalf("the rejected chunk left %d objects and %d keys behind", obj.Len(), n)
	}
	if err := ds.Put("a/file.bin", data); err != nil {
		t.Fatal(err)
	}
	if err := ds.Flush(); err != nil {
		t.Fatalf("Flush after the rejection: %v", err)
	}
	if got, err := ds.Get(context.Background(), "a/file.bin"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back after the rejection: %d bytes, %v", len(got), err)
	}
}
