package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"diesel/internal/chunk"
	"diesel/internal/kvstore"
	"diesel/internal/meta"
	"diesel/internal/objstore"
	"diesel/internal/wire"
)

// A differential test of the metadata readers. A pure in-memory model of
// one dataset — path → bytes, and the chunks the object store holds in
// write order — runs beside a Server on kvstore.Local and objstore.Memory.
// After every operation each reader must give the model's answer: stat,
// get and one batch over every path; ls (over the wire, as dsl.ls serves
// it) of every directory; and a fresh snapshot's Stat and List.

// modelDirs and modelNames span the paths the operations touch: three
// directory levels (the root, a/ and b/, and their a/ and b/), three files
// in each. A file name never names a directory, so a path is one or the
// other.
var (
	modelDirs  = []string{"", "a", "b", "a/a", "a/b", "b/a", "b/b"}
	modelNames = []string{"x", "y", "z"}
	modelPaths = func() []string {
		var out []string
		for _, d := range modelDirs {
			for _, n := range modelNames {
				out = append(out, joinPath(d, n))
			}
		}
		return out
	}()
	// Directories no file is ever written under.
	modelMissingDirs = []string{"c", "a/c", "x/y"}
)

func joinPath(dir, base string) string {
	if dir == "" {
		return base
	}
	return dir + "/" + base
}

// modelChunk is one chunk the object store holds: its ID's timestamp (what
// recovery scenario (a) filters on) and its entries.
type modelChunk struct {
	sec   uint32
	names []string
	data  [][]byte
}

// modelLoc is where a live path's record points: an entry of a chunk.
type modelLoc struct {
	c *modelChunk
	i int
}

// model is what the dataset holds, derived from the operations alone.
type model struct {
	exists bool // the dataset has a record
	files  map[string][]byte
	loc    map[string]modelLoc
	chunks []*modelChunk // write order
}

func newModel() *model {
	return &model{files: map[string][]byte{}, loc: map[string]modelLoc{}}
}

// put is what an ingest or a replayed chunk does to the files.
func (m *model) put(c *modelChunk) {
	for i, n := range c.names {
		m.files[n] = c.data[i]
		m.loc[n] = modelLoc{c, i}
	}
}

// purge re-packs the live entries of every holed chunk into one new chunk
// stamped sec and drops the holed ones: what Server.purge does with chunks
// far below its target size.
func (m *model) purge(sec uint32) PurgeStats {
	live := map[*modelChunk]int{}
	for _, l := range m.loc {
		live[l.c]++
	}
	var st PurgeStats
	carried := &modelChunk{sec: sec}
	var kept []*modelChunk
	for _, c := range m.chunks {
		if live[c] == len(c.names) {
			kept = append(kept, c)
			continue
		}
		st.ChunksRewritten++
		st.ChunksDeleted++
		for i, n := range c.names {
			if m.loc[n] == (modelLoc{c, i}) {
				carried.names = append(carried.names, n)
				carried.data = append(carried.data, c.data[i])
				st.FilesCarried++
			} else {
				st.BytesReclaimed += uint64(len(c.data[i]))
			}
		}
	}
	m.chunks = kept
	if len(carried.names) > 0 {
		m.chunks = append(m.chunks, carried)
		m.put(carried)
	}
	return st
}

// dirExists says whether dir is a directory of the dataset: the root of
// one that exists, or a directory a file lies under.
func (m *model) dirExists(dir string) bool {
	if !m.exists {
		return false
	}
	if dir == "" {
		return true
	}
	for p := range m.files {
		if strings.HasPrefix(p, dir+"/") {
			return true
		}
	}
	return false
}

// list is the model's listing of an existing directory: child directories,
// then files, each sorted by name.
func (m *model) list(dir string) []meta.DirEntry {
	prefix := ""
	if dir != "" {
		prefix = dir + "/"
	}
	subdirs := map[string]bool{}
	var files []meta.DirEntry
	for p, b := range m.files {
		rest, ok := strings.CutPrefix(p, prefix)
		if !ok {
			continue
		}
		if sub, _, isDir := strings.Cut(rest, "/"); isDir {
			subdirs[sub] = true
		} else {
			files = append(files, meta.DirEntry{Name: rest, Size: uint64(len(b))})
		}
	}
	out := make([]meta.DirEntry, 0, len(subdirs)+len(files))
	for d := range subdirs {
		out = append(out, meta.DirEntry{Name: d, IsDir: true})
	}
	slices.SortFunc(out, func(a, b meta.DirEntry) int { return strings.Compare(a.Name, b.Name) })
	slices.SortFunc(files, func(a, b meta.DirEntry) int { return strings.Compare(a.Name, b.Name) })
	return append(out, files...)
}

// modelRig is the server side of the test: a server over a KV backend whose
// MSet can be held half landed, and a wire client of it.
type modelRig struct {
	s      *Server
	kv     *kvstore.Local
	obj    *objstore.Memory
	c      *wire.Client
	gen    *chunk.IDGenerator
	sec    uint32 // the ID generator's clock
	hold   atomic.Bool
	held   chan struct{}
	resume chan struct{}
}

func newModelRig(t *testing.T) *modelRig {
	r := &modelRig{kv: kvstore.NewLocal(), obj: objstore.NewMemory(), sec: 100, held: make(chan struct{}), resume: make(chan struct{})}
	var now atomic.Int64
	r.s = New(splitMSetKV{Local: r.kv, between: func() {
		if r.hold.CompareAndSwap(true, false) {
			r.held <- struct{}{}
			<-r.resume
		}
	}}, r.obj, func() int64 { return now.Add(1) })
	r.gen = chunk.NewIDGeneratorAt([6]byte{3}, 1, func() uint32 { return r.sec })
	_, r.c = serveRPC(t, r.s)
	return r
}

// seal builds one chunk of the given files under gen's next ID.
func (r *modelRig) seal(t *testing.T, gen *chunk.IDGenerator, c *modelChunk) (chunk.ID, []byte) {
	t.Helper()
	b := chunk.NewBuilder(1<<10, gen, r.s.nowNS) // never full: ≤ 4 small files
	for i, n := range c.names {
		if _, err := b.Add(n, c.data[i]); err != nil {
			t.Fatal(err)
		}
	}
	h, enc, err := b.Seal()
	if err != nil {
		t.Fatal(err)
	}
	return h.ID, enc
}

// mintingNext returns a generator whose next ID is id: id's machine and
// process fields, a clock stopped at id's second, and the counter run up
// to id's.
func mintingNext(id chunk.ID) *chunk.IDGenerator {
	pid := uint32(id[10])<<16 | uint32(id[11])<<8 | uint32(id[12])
	g := chunk.NewIDGeneratorAt([6]byte(id[4:10]), pid, id.Timestamp)
	for range uint32(id[13])<<16 | uint32(id[14])<<8 | uint32(id[15]) {
		g.Next()
	}
	return g
}

// lsRPC lists dir of dataset through dsl.ls.
func lsRPC(c *wire.Client, dataset, dir string) ([]meta.DirEntry, error) {
	resp, err := c.Call(MethodList, encStrings(dataset, dir))
	if err != nil {
		return nil, err
	}
	d := wire.NewDecoder(resp)
	out := make([]meta.DirEntry, d.Uint32())
	for i := range out {
		out[i] = meta.DirEntry{Name: d.String(), IsDir: d.Bool(), Size: d.Uint64()}
	}
	return out, d.Err()
}

// remoteIs reports whether err is a server's answer carrying want's message.
func remoteIs(err, want error) bool {
	return wire.IsRemote(err) && strings.Contains(err.Error(), want.Error())
}

const modelDataset = "ds"

// check compares every reader with m.
func (r *modelRig) check(t *testing.T, step string, m *model) {
	t.Helper()
	ctx := context.Background()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: %s", step, fmt.Sprintf(format, args...))
	}
	if kvs, _ := r.kv.ScanPrefix("d|"); len(kvs) != 0 {
		fail("%d directory records in the KV store, want none", len(kvs))
	}

	recs := map[string]meta.FileRecord{}
	for _, p := range modelPaths {
		want, live := m.files[p]
		fr, err := r.s.StatContext(ctx, modelDataset, p)
		got, gerr := getFile(r.s, modelDataset, p)
		switch {
		case !live:
			if !errors.Is(err, ErrNoSuchFile) || !errors.Is(gerr, ErrNoSuchFile) {
				fail("missing %s: stat %v, get %q, %v; want ErrNoSuchFile", p, err, got, gerr)
			}
		case err != nil || fr.FullName != p || fr.Length != uint64(len(want)):
			fail("stat %s = %+v, %v; want %d bytes", p, fr, err, len(want))
		case gerr != nil || !bytes.Equal(got, want):
			fail("get %s = %q, %v; want %q", p, got, gerr, want)
		default:
			recs[p] = fr
		}
	}
	batch, err := r.s.GetFilesContext(ctx, modelDataset, modelPaths)
	if err != nil {
		fail("batch: %v", err)
	}
	for i, p := range modelPaths {
		if want, live := m.files[p]; live != (batch[i] != nil) || !bytes.Equal(batch[i], want) {
			fail("batch entry %s = %q, want %q (live %v)", p, batch[i], want, live)
		}
	}

	snap, err := r.s.BuildSnapshot(modelDataset)
	if !m.exists {
		if !errors.Is(err, ErrNoSuchDataset) {
			fail("snapshot of a dataset that does not exist: %v", err)
		}
	} else if err != nil {
		fail("snapshot: %v", err)
	} else {
		if snap.NumFiles() != len(m.files) {
			fail("snapshot holds %d files, want %d", snap.NumFiles(), len(m.files))
		}
		for _, p := range modelPaths {
			fm, err := snap.Stat(p)
			fr, live := recs[p]
			if !live {
				if !errors.Is(err, meta.ErrNotExist) {
					fail("snapshot stat of missing %s: %+v, %v", p, fm, err)
				}
				continue
			}
			if err != nil || snap.Chunks[fm.ChunkIdx].ID != fr.ChunkID || fm.Offset != fr.Offset || fm.Length != fr.Length {
				fail("snapshot stat %s = %+v, %v; the server's record is %+v", p, fm, err, fr)
			}
		}
	}

	for _, dir := range append(slices.Clone(modelDirs), modelMissingDirs...) {
		got, err := lsRPC(r.c, modelDataset, dir)
		var sgot []meta.DirEntry
		var serr error
		if snap != nil {
			sgot, serr = snap.List(dir)
		}
		switch {
		case !m.exists:
			if !remoteIs(err, ErrNoSuchDataset) {
				fail("ls %q of a dataset that does not exist: %v, %v", dir, got, err)
			}
		case !m.dirExists(dir):
			if !remoteIs(err, meta.ErrNotExist) || !errors.Is(serr, meta.ErrNotExist) {
				fail("ls %q of a missing directory: %v, %v; snapshot %v, %v", dir, got, err, sgot, serr)
			}
		default:
			want := m.list(dir)
			if err != nil || !slices.Equal(got, want) {
				fail("ls %q = %v, %v; want %v", dir, got, err, want)
			}
			if serr != nil || !slices.Equal(sgot, want) {
				fail("snapshot list %q = %v, %v; want %v", dir, sgot, serr, want)
			}
		}
	}
}

// modelChunkOf draws one chunk's worth of distinct paths and fresh bytes.
func modelChunkOf(rng *rand.Rand, sec uint32, version *int) *modelChunk {
	c := &modelChunk{sec: sec}
	n := 1 + rng.Intn(4)
	for _, i := range rng.Perm(len(modelPaths))[:n] {
		*version++
		p := modelPaths[i]
		c.names = append(c.names, p)
		c.data = append(c.data, []byte(fmt.Sprintf("%s@%d%s", p, *version, strings.Repeat("+", rng.Intn(24)))))
	}
	return c
}

// runModel applies a seeded random sequence of operations to the model and
// the server, checking every reader after each.
func runModel(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	r := newModelRig(t)
	m := newModel()
	version := 0
	r.check(t, "empty", m)
	for step := range 14 {
		r.sec += uint32(rng.Intn(3))
		var what string
		switch op := rng.Intn(100); {
		case op < 30: // ingest, overwriting what it draws
			c := modelChunkOf(rng, r.sec, &version)
			what = fmt.Sprintf("ingest %v", c.names)
			_, enc := r.seal(t, r.gen, c)
			if _, err := r.s.Ingest(modelDataset, enc); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			m.exists = true
			m.chunks = append(m.chunks, c)
			m.put(c)

		case op < 38: // an ingest under the ID of a stored chunk: refused
			keys, _ := r.obj.List(modelDataset + "/")
			if len(keys) == 0 {
				what = "no chunk to collide with"
				break
			}
			taken, err := chunk.ParseID(strings.TrimPrefix(keys[rng.Intn(len(keys))], modelDataset+"/"))
			if err != nil {
				t.Fatal(err)
			}
			c := modelChunkOf(rng, r.sec, &version)
			what = fmt.Sprintf("ingest %v under the taken ID %v", c.names, taken)
			id, enc := r.seal(t, mintingNext(taken), c)
			if id != taken {
				t.Fatalf("%s: sealed under %v", what, id)
			}
			if _, err := r.s.Ingest(modelDataset, enc); !errors.Is(err, objstore.ErrExists) {
				t.Fatalf("%s: %v, want objstore.ErrExists", what, err)
			}

		case op < 48: // an ingest held with its file records half landed
			c := modelChunkOf(rng, r.sec, &version)
			what = fmt.Sprintf("held ingest %v", c.names)
			id, enc := r.seal(t, r.gen, c)
			r.hold.Store(true)
			done := make(chan error, 1)
			go func() { _, err := r.s.Ingest(modelDataset, enc); done <- err }()
			select {
			case <-r.held:
			case err := <-done:
				t.Fatalf("%s returned before its file records landed: %v", what, err)
			}
			// The committed view: the model before the ingest, less the
			// paths whose records now name the uncommitted chunk.
			during := &model{exists: m.exists, files: maps.Clone(m.files)}
			for _, n := range c.names {
				b, err := r.kv.Get(meta.FileKey(modelDataset, n))
				if err != nil {
					continue
				}
				if fr, err := meta.DecodeFileRecord(b); err == nil && fr.ChunkID == id {
					delete(during.files, n)
				}
			}
			func() {
				defer func() { r.resume <- struct{}{} }() // also when the check fails
				r.check(t, fmt.Sprintf("step %d, during %s", step, what), during)
			}()
			if err := <-done; err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			m.exists = true
			m.chunks = append(m.chunks, c)
			m.put(c)

		case op < 67: // delete, of a live path or a missing one
			p := modelPaths[rng.Intn(len(modelPaths))]
			what = "delete " + p
			err := r.s.deleteFile(modelDataset, p)
			if _, live := m.files[p]; live {
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				delete(m.files, p)
				delete(m.loc, p)
			} else if !errors.Is(err, ErrNoSuchFile) {
				t.Fatalf("%s of a missing file: %v, want ErrNoSuchFile", what, err)
			}

		case op < 79:
			what = "purge"
			st, err := r.s.purge(modelDataset, r.gen)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if want := m.purge(r.sec); st != want {
				t.Fatalf("step %d: purge = %+v, want %+v", step, st, want)
			}

		case op < 87: // recovery (a): the records of recent chunks are lost
			from := r.sec + 1
			if len(m.chunks) > 0 {
				from = m.chunks[rng.Intn(len(m.chunks))].sec
			}
			what = fmt.Sprintf("recover (a) from %d", from)
			var scanned int
			for _, c := range m.chunks {
				if c.sec < from {
					continue
				}
				scanned++
				for _, n := range c.names {
					r.kv.Del(meta.FileKey(modelDataset, n))
				}
			}
			st, err := r.s.RecoverMetadata(modelDataset, from)
			if err != nil || st.ChunksScanned != scanned || st.ChunksSkipped != len(m.chunks)-scanned {
				t.Fatalf("step %d: %s = %+v, %v; want %d scanned of %d", step, what, st, err, scanned, len(m.chunks))
			}
			for _, c := range m.chunks {
				if c.sec >= from {
					m.put(c)
				}
			}
			m.exists = m.exists || scanned > 0

		case op < 95: // recovery (b): every record is lost
			what = "recover (b)"
			r.kv.FlushAll()
			if _, err := r.s.RecoverMetadata(modelDataset, 0); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			chunks := m.chunks
			m = newModel()
			m.chunks = chunks
			for _, c := range chunks {
				m.put(c)
			}
			m.exists = len(chunks) > 0

		default:
			what = "delete dataset"
			if err := r.s.DeleteDataset(modelDataset); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			m = newModel()
		}
		r.check(t, fmt.Sprintf("step %d, after %s", step, what), m)
	}
}

// FuzzMetadataModel runs the differential test from a seed. Its seed
// corpus, which plain go test runs, is 200 seeds.
func FuzzMetadataModel(f *testing.F) {
	for seed := range int64(200) {
		f.Add(seed)
	}
	f.Fuzz(runModel)
}

// heldOverwrite ingests a → "old-a" and b → "bb", then holds an overwrite
// of a (and a new file c) with a's record landed and c's and the chunk
// record not, and calls fn meanwhile.
func heldOverwrite(t *testing.T, fn func(s *Server, c *wire.Client)) {
	var armed atomic.Bool
	held, resume := make(chan struct{}), make(chan struct{})
	kv := splitMSetKV{Local: kvstore.NewLocal(), between: func() {
		if armed.CompareAndSwap(true, false) {
			held <- struct{}{}
			<-resume
		}
	}}
	var now atomic.Int64
	s := New(kv, objstore.NewMemory(), func() int64 { return now.Add(1) })
	gen := chunk.NewIDGeneratorAt([6]byte{7}, 1, func() uint32 { return 100 })
	_, c := serveRPC(t, s)
	if _, err := s.Ingest("ds", sealOne(t, gen, s.nowNS, "a", "old-a", "b", "bb")); err != nil {
		t.Fatal(err)
	}
	enc := sealOne(t, gen, s.nowNS, "a", "new-a", "c", "cc")
	armed.Store(true)
	done := make(chan error, 1)
	go func() { _, err := s.Ingest("ds", enc); done <- err }()
	select {
	case <-held:
	case err := <-done:
		t.Fatalf("the overwrite returned before its file records landed: %v", err)
	}
	defer func() {
		resume <- struct{}{}
		if err := <-done; err != nil {
			t.Error(err)
		}
	}()
	fn(s, c)
}

// TestCommittedViewRows: the cases where two readers of the same metadata
// gave different answers, each now answered by the committed view.
func TestCommittedViewRows(t *testing.T) {
	t.Run("ls after a purge lists no phantom directory", func(t *testing.T) {
		s, _, kv, gen := testStack()
		_, c := serveRPC(t, s)
		if _, err := s.Ingest("ds", sealOne(t, gen, s.nowNS, "a/x", "xx", "b/y", "yy")); err != nil {
			t.Fatal(err)
		}
		if err := s.deleteFile("ds", "a/x"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.purge("ds", gen); err != nil {
			t.Fatal(err)
		}
		want := []meta.DirEntry{{Name: "b", IsDir: true}}
		if got, err := lsRPC(c, "ds", ""); err != nil || !slices.Equal(got, want) {
			t.Errorf("dsl.ls of the root = %v, %v; want %v", got, err, want)
		}
		if got, err := snapshotOf(t, s, "ds").List(""); err != nil || !slices.Equal(got, want) {
			t.Errorf("snapshot list of the root = %v, %v; want %v", got, err, want)
		}
		if kvs, _ := kv.ScanPrefix("d|"); len(kvs) != 0 {
			t.Errorf("%d directory records in the KV store, want none", len(kvs))
		}
	})

	t.Run("ls of a missing directory is ErrNotExist", func(t *testing.T) {
		s, _, _, gen := testStack()
		_, c := serveRPC(t, s)
		if _, err := s.Ingest("ds", sealOne(t, gen, s.nowNS, "a/x", "xx")); err != nil {
			t.Fatal(err)
		}
		if got, err := lsRPC(c, "ds", "no/such/dir"); !remoteIs(err, meta.ErrNotExist) {
			t.Errorf("dsl.ls of a missing directory = %v, %v; want %q", got, err, meta.ErrNotExist)
		}
	})

	t.Run("ls of a missing dataset is ErrNoSuchDataset", func(t *testing.T) {
		s, _, _, _ := testStack()
		_, c := serveRPC(t, s)
		if got, err := lsRPC(c, "nope", ""); !remoteIs(err, ErrNoSuchDataset) {
			t.Errorf("dsl.ls of a missing dataset = %v, %v; want %q", got, err, ErrNoSuchDataset)
		}
	})

	t.Run("an overwrite in flight reads as missing everywhere", func(t *testing.T) {
		heldOverwrite(t, func(s *Server, c *wire.Client) {
			if fr, err := s.StatContext(context.Background(), "ds", "a"); !errors.Is(err, ErrNoSuchFile) {
				t.Errorf("stat a = %+v, %v; want ErrNoSuchFile", fr, err)
			}
			if got, err := getFile(s, "ds", "a"); !errors.Is(err, ErrNoSuchFile) {
				t.Errorf("get a = %q, %v; want ErrNoSuchFile", got, err)
			}
			want := []meta.DirEntry{{Name: "b", Size: 2}}
			if got, err := lsRPC(c, "ds", ""); err != nil || !slices.Equal(got, want) {
				t.Errorf("dsl.ls of the root = %v, %v; want %v", got, err, want)
			}
			if got, err := snapshotOf(t, s, "ds").List(""); err != nil || !slices.Equal(got, want) {
				t.Errorf("snapshot list of the root = %v, %v; want %v", got, err, want)
			}
		})
	})

	t.Run("an overwrite in flight leaves the rest of a batch", func(t *testing.T) {
		heldOverwrite(t, func(s *Server, _ *wire.Client) {
			got, err := s.GetFilesContext(context.Background(), "ds", []string{"a", "b"})
			if err != nil || got[0] != nil || string(got[1]) != "bb" {
				t.Errorf("batch [a b] = %q, %v; want [nil bb]", got, err)
			}
		})
	})
}
