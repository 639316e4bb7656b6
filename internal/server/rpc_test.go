package server

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"diesel/internal/chunk"
	"diesel/internal/kvstore"
	"diesel/internal/meta"
	"diesel/internal/objstore"
	"diesel/internal/wire"
)

// startRPC exposes a loaded test stack over the wire protocol.
func startRPC(t *testing.T) (*RPCServer, *wire.Client, map[string][]byte, *chunk.IDGenerator) {
	t.Helper()
	s, _, _, gen := testStack()
	files := make(map[string][]byte)
	b := chunk.NewBuilder(2048, gen, s.nowNS)
	for i := range 40 {
		name := fmt.Sprintf("d%d/f%04d", i%4, i)
		data := bytes.Repeat([]byte{byte(i)}, 100)
		files[name] = data
		full, err := b.Add(name, data)
		if err != nil {
			t.Fatal(err)
		}
		if full {
			_, enc, _ := b.Seal()
			if _, err := s.Ingest("ds", enc); err != nil {
				t.Fatal(err)
			}
		}
	}
	if b.Count() > 0 {
		_, enc, _ := b.Seal()
		if _, err := s.Ingest("ds", enc); err != nil {
			t.Fatal(err)
		}
	}

	rpc, c := serveRPC(t, s)
	return rpc, c, files, gen
}

// serveRPC exposes s over the wire protocol and returns the server and a
// client of it.
func serveRPC(t *testing.T, s *Server) (*RPCServer, *wire.Client) {
	t.Helper()
	rpc, err := NewRPC(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rpc.Close() })
	c, err := wire.Dial(rpc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return rpc, c
}

func encStrings(ss ...string) []byte {
	e := wire.NewEncoder(64)
	for _, s := range ss {
		e.String(s)
	}
	return e.Bytes()
}

func TestRPCGetAndStat(t *testing.T) {
	_, c, files, _ := startRPC(t)
	resp, err := c.Call(MethodGet, encStrings("ds", "d1/f0001"))
	if err != nil {
		t.Fatal(err)
	}
	d := wire.NewDecoder(resp)
	if got := d.Bytes32(); !bytes.Equal(got, files["d1/f0001"]) {
		t.Errorf("get mismatch")
	}

	resp, err = c.Call(MethodStat, encStrings("ds", "d1/f0001"))
	if err != nil {
		t.Fatal(err)
	}
	fr, err := meta.DecodeFileRecord(resp)
	if err != nil || fr.Length != 100 {
		t.Errorf("stat = %+v, %v", fr, err)
	}

	if _, err := c.Call(MethodGet, encStrings("ds", "missing")); !wire.IsRemote(err) {
		t.Errorf("missing get: %v", err)
	}
}

func TestRPCGetBatch(t *testing.T) {
	_, c, files, _ := startRPC(t)
	e := wire.NewEncoder(64)
	e.String("ds")
	e.StringSlice([]string{"d0/f0000", "missing", "d2/f0002"})
	resp, err := c.Call(MethodGetBatch, e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// The table (count, then a present flag and a length per file), then
	// the present files back to back.
	d := wire.NewDecoder(resp)
	if n := d.Uint32(); n != 3 {
		t.Fatalf("batch count %d", n)
	}
	ok1, n1 := d.Bool(), d.Uint32()
	ok2, n2 := d.Bool(), d.Uint32()
	ok3, n3 := d.Bool(), d.Uint32()
	if d.Err() != nil || len(resp) != 4+3*5+int(n1+n2+n3) {
		t.Fatalf("a %d-byte response for a table of %d+%d+%d bytes (%v)", len(resp), n1, n2, n3, d.Err())
	}
	body := resp[4+3*5:]
	if !ok1 || !bytes.Equal(body[:n1], files["d0/f0000"]) {
		t.Error("entry 1 wrong")
	}
	if ok2 || n2 != 0 {
		t.Error("missing file marked present")
	}
	if !ok3 || !bytes.Equal(body[n1:], files["d2/f0002"]) {
		t.Error("entry 3 wrong")
	}
}

func TestRPCListAndRecord(t *testing.T) {
	rpc, c, _, _ := startRPC(t)
	resp, err := c.Call(MethodList, encStrings("ds", ""))
	if err != nil {
		t.Fatal(err)
	}
	d := wire.NewDecoder(resp)
	n := int(d.Uint32())
	if n != 4 {
		t.Fatalf("root has %d entries", n)
	}
	for range n {
		name := d.String()
		isDir := d.Bool()
		d.Uint64()
		if !isDir || !strings.HasPrefix(name, "d") {
			t.Errorf("entry %q dir=%v", name, isDir)
		}
	}

	resp, err = c.Call(MethodDatasetRecord, encStrings("ds"))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := meta.DecodeDatasetRecord(resp)
	if want, _ := rpc.S.datasetRecord("ds"); err != nil || rec.UpdatedNS == 0 || rec != want {
		t.Errorf("record = %+v, %v; the server holds %+v", rec, err, want)
	}
}

func TestRPCSnapshot(t *testing.T) {
	_, c, _, _ := startRPC(t)
	resp, err := c.Call(MethodSnapshot, encStrings("ds"))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := meta.DecodeSnapshot(resp)
	if err != nil || snap.NumFiles() != 40 {
		t.Fatalf("snapshot = %v, %v", snap, err)
	}
}

func TestRPCGetChunk(t *testing.T) {
	_, c, _, _ := startRPC(t)
	resp, err := c.Call(MethodSnapshot, encStrings("ds"))
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := meta.DecodeSnapshot(resp)
	id := snap.Chunks[0].ID.String()

	resp, err = c.Call(MethodGetChunk, encStrings("ds", id))
	if err != nil {
		t.Fatal(err)
	}
	d := wire.NewDecoder(resp)
	blob := d.Bytes32()
	if _, err := chunk.Parse(blob); err != nil {
		t.Fatalf("returned chunk unparsable: %v", err)
	}
}

func TestRPCIngest(t *testing.T) {
	_, c, _, gen := startRPC(t)
	b := chunk.NewBuilder(0, gen, func() int64 { return 99 })
	b.Add("new/file.bin", []byte("fresh"))
	_, enc, _ := b.Seal()
	e := wire.NewEncoder(len(enc) + 16)
	e.String("ds")
	e.Bytes32(enc)
	resp, err := c.Call(MethodIngest, e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	d := wire.NewDecoder(resp)
	idStr := d.String()
	if _, err := chunk.ParseID(idStr); err != nil {
		t.Errorf("ingest returned bad id %q", idStr)
	}
	if n := d.Uint32(); n != 1 {
		t.Errorf("ingest file count = %d", n)
	}
	got, err := c.Call(MethodGet, encStrings("ds", "new/file.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(got, []byte("fresh")) {
		t.Error("ingested file unreadable")
	}
}

func TestRPCDeleteAndPurge(t *testing.T) {
	rpc, c, _, _ := startRPC(t)
	if _, err := c.Call(MethodDelete, encStrings("ds", "d0/f0000")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(MethodGet, encStrings("ds", "d0/f0000")); err == nil {
		t.Error("deleted file readable")
	}
	resp, err := c.Call(MethodPurge, encStrings("ds"))
	if err != nil {
		t.Fatal(err)
	}
	d := wire.NewDecoder(resp)
	rewritten := d.Uint64()
	reclaimed := d.Uint64()
	if rewritten == 0 || reclaimed != 100 {
		t.Errorf("purge: rewritten=%d reclaimed=%d", rewritten, reclaimed)
	}
	_ = rpc
}

func TestRPCRecover(t *testing.T) {
	rpc, c, _, _ := startRPC(t)
	// Wipe via the backing stack, recover via RPC.
	rpc.S.kv.(interface{ FlushAll() error }).FlushAll()
	e := wire.NewEncoder(16)
	e.String("ds")
	e.Uint32(0)
	resp, err := c.Call(MethodRecover, e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	d := wire.NewDecoder(resp)
	scanned := d.Uint64()
	if scanned == 0 {
		t.Error("recover scanned nothing")
	}
	if _, err := c.Call(MethodGet, encStrings("ds", "d1/f0001")); err != nil {
		t.Errorf("read after RPC recovery: %v", err)
	}
}

func TestRPCDeleteDataset(t *testing.T) {
	_, c, _, _ := startRPC(t)
	if _, err := c.Call(MethodDeleteDataset, encStrings("ds")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(MethodDatasetRecord, encStrings("ds")); !wire.IsRemote(err) {
		t.Errorf("dataset record after delete: %v", err)
	}
}

func TestRPCMalformedPayloads(t *testing.T) {
	_, c, _, _ := startRPC(t)
	for _, method := range []string{
		MethodGet, MethodGetBatch, MethodGetChunk, MethodStat, MethodList,
		MethodDatasetRecord, MethodSnapshot, MethodDelete, MethodPurge,
		MethodDeleteDataset, MethodRecover, MethodIngest,
	} {
		if _, err := c.Call(method, []byte{0xFF}); err == nil {
			t.Errorf("%s accepted garbage payload", method)
		}
	}
}

func TestChunkShapeCaching(t *testing.T) {
	s, _, kv, gen := testStack()
	writeFiles(t, s, gen, "ds", 10, 100, 1<<20)
	snap, _ := s.BuildSnapshot("ds")
	cm := snap.Chunks[0]
	id := cm.ID.String()

	sh1, err := s.shapeOf(context.Background(), "ds", cm.ID)
	if err != nil || sh1.headerLen != cm.HeaderLen || sh1.size != cm.Size || sh1.key != ObjectKey("ds", id) {
		t.Fatalf("shapeOf = %+v, %v; the chunk record says header %d, size %d", sh1, err, cm.HeaderLen, cm.Size)
	}
	// Delete the chunk record: the cache must still serve the answer.
	kv.Del(meta.ChunkKey("ds", id))
	sh2, err := s.shapeOf(context.Background(), "ds", cm.ID)
	if err != nil || sh2 != sh1 {
		t.Errorf("cached shapeOf = %+v, %v", sh2, err)
	}
}

// TestReadHeaderLargeHeader covers the geometric-growth path in
// readHeader: a chunk whose header exceeds the initial 64 KiB probe.
func TestReadHeaderLargeHeader(t *testing.T) {
	s, _, kv, gen := testStack()
	b := chunk.NewBuilder(1<<30, gen, s.nowNS)
	// 2000 files with ~100-byte names → header ≈ 240 KB.
	longDir := strings.Repeat("x", 80)
	for i := range 2000 {
		b.Add(fmt.Sprintf("%s/f%06d", longDir, i), []byte("d"))
	}
	_, enc, _ := b.Seal()
	if _, err := s.Ingest("ds", enc); err != nil {
		t.Fatal(err)
	}
	kv.FlushAll()
	if _, err := s.RecoverMetadata("ds", 0); err != nil {
		t.Fatal(err)
	}
	if n := snapshotOf(t, s, "ds").NumFiles(); n != 2000 {
		t.Errorf("recovered %d files", n)
	}
}

// TestRPCIngestStoresTheRequestBody: the chunk dsl.ingest stores is the
// request payload it arrived in — an allocation of exactly the request's
// size with the chunk as its tail, no copy — and it stays what it was while
// hundreds of other requests, whose payloads do return to the pools, run
// on the same connection.
func TestRPCIngestStoresTheRequestBody(t *testing.T) {
	s, obj, _, gen := testStack()
	rpc, err := NewRPC(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rpc.Close()
	c, err := wire.Dial(rpc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	b := chunk.NewBuilder(0, gen, s.nowNS)
	b.Add("big/file.bin", bytes.Repeat([]byte("0123456789abcdef"), 20_000)) // beyond the coalescing size
	h, enc, _ := b.Seal()
	e := wire.NewEncoder(len(enc) + 16)
	e.String("ds")
	e.Bytes32(enc)
	if _, err := c.Call(MethodIngest, e.Bytes()); err != nil {
		t.Fatal(err)
	}
	stored, release, err := obj.GetPooled(ObjectKey("ds", h.ID.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if cap(stored) != len(stored) {
		t.Errorf("stored chunk len %d cap %d: the request body was not an exact allocation", len(stored), cap(stored))
	}
	for i := range 300 {
		// Same-sized requests to a handler that does not keep them: were
		// the ingest body pooled, one of these would be read over it.
		junk := bytes.Repeat([]byte{byte(i)}, len(e.Bytes()))
		if _, err := c.Call(MethodStat, junk); err == nil {
			t.Fatal("junk stat request succeeded")
		}
	}
	if !bytes.Equal(stored, enc) {
		t.Error("the stored chunk changed under later requests: its buffer was recycled")
	}
}

// TestTwoRPCServersMintDistinctIDs: two RPC servers in one process, over
// one KV database and one object store, purge one dataset one after the
// other. The chunks the purges write get distinct IDs, so both land.
func TestTwoRPCServersMintDistinctIDs(t *testing.T) {
	kv, obj := kvstore.NewLocal(), objstore.NewMemory()
	clock := func() int64 { return time.Now().UnixNano() }
	gen := chunk.NewIDGeneratorAt([6]byte{7}, 1, func() uint32 { return 100 })
	servers := [2]*Server{New(kv, obj, clock), New(kv, obj, clock)}
	var kept []string
	for i, s := range servers {
		_, c := serveRPC(t, s)
		gone, keep := fmt.Sprintf("gone%d", i), fmt.Sprintf("kept%d", i)
		if _, err := s.Ingest("ds", sealOne(t, gen, clock, gone, gone, keep, keep)); err != nil {
			t.Fatal(err)
		}
		kept = append(kept, keep)
		if err := s.deleteFile("ds", gone); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Call(MethodPurge, encStrings("ds")); err != nil {
			t.Fatalf("purge through server %d: %v", i, err)
		}
	}
	if keys, _ := obj.List("ds/"); len(keys) != 2 {
		t.Errorf("the two purges left %d chunks, want 2: %v", len(keys), keys)
	}
	for _, name := range kept {
		if got, err := getFile(servers[0], "ds", name); err != nil || string(got) != name {
			t.Errorf("%s reads %q, %v", name, got, err)
		}
	}
}
