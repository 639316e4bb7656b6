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
// get and one batch over every path; ls and the snapshot download (over
// the wire, as dsl.ls and dsl.snapshot serve them from the server's cached
// view) of every directory; and a fresh snapshot's Stat and List, which
// the downloaded one must equal byte for byte.

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

func (m *model) clone() *model {
	return &model{exists: m.exists, files: maps.Clone(m.files), loc: maps.Clone(m.loc), chunks: slices.Clone(m.chunks)}
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

// modelRig is the server side of the test: a server over a KV backend that
// can hold a change with its MSet half landed, or with its data written
// and its stamp not, and a wire client of it.
type modelRig struct {
	s         *Server
	kv        *kvstore.Local
	obj       *objstore.Memory
	c         *wire.Client
	gen       *chunk.IDGenerator
	sec       uint32 // the ID generator's clock
	holdMSet  atomic.Bool
	holdStamp atomic.Bool
	held      chan struct{}
	resume    chan struct{}
}

// modelKV is splitMSetKV that also calls beforeStamp before it writes the
// dataset record: a change's data writes have landed, its stamp has not.
type modelKV struct {
	splitMSetKV
	beforeStamp func()
}

func (k modelKV) Set(key string, value []byte) error {
	if key == meta.DatasetKey(modelDataset) {
		k.beforeStamp()
	}
	return k.splitMSetKV.Set(key, value)
}

func newModelRig(t *testing.T) *modelRig {
	r := &modelRig{kv: kvstore.NewLocal(), obj: objstore.NewMemory(), sec: 100, held: make(chan struct{}), resume: make(chan struct{})}
	wait := func(hold *atomic.Bool) func() {
		return func() {
			if hold.CompareAndSwap(true, false) {
				r.held <- struct{}{}
				<-r.resume
			}
		}
	}
	var now atomic.Int64
	kv := modelKV{splitMSetKV{Local: r.kv, between: wait(&r.holdMSet)}, wait(&r.holdStamp)}
	r.s = New(kv, r.obj, func() int64 { return now.Add(1) })
	r.gen = chunk.NewIDGeneratorAt([6]byte{3}, 1, func() uint32 { return r.sec })
	_, r.c = serveRPC(t, r.s)
	return r
}

// holding runs op with hold armed and calls during while op is held. An op
// that returns without reaching the hold disarms it, and during is not
// called.
func (r *modelRig) holding(hold *atomic.Bool, op func() error, during func()) error {
	hold.Store(true)
	done := make(chan error, 1)
	go func() { done <- op() }()
	select {
	case <-r.held:
		func() {
			defer func() { r.resume <- struct{}{} }() // also when the check fails
			during()
		}()
		return <-done
	case err := <-done:
		hold.Store(false)
		return err
	}
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

// check compares every reader with the models. The point readers (stat,
// get, batch) and a fresh snapshot give m, the committed view; dsl.ls and
// dsl.snapshot, which answer from the view cached at the dataset's stamp,
// give listed, the view as of the last stamp. The two differ only while a
// change is held before its stamp; otherwise they are one model, and the
// downloaded snapshot is the fresh one's encoding. The dataset record is
// the last stamp, so whether the dataset exists is listed's to say.
func (r *modelRig) check(t *testing.T, step string, listed, m *model) {
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
	if !listed.exists {
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

	enc, err := snapshotRPC(r.c, modelDataset)
	var cached *meta.Snapshot
	switch {
	case !listed.exists:
		if !remoteIs(err, ErrNoSuchDataset) {
			fail("dsl.snapshot of a dataset that does not exist: %v", err)
		}
	case err != nil:
		fail("dsl.snapshot: %v", err)
	case listed == m && !bytes.Equal(enc, snap.Encode()):
		fail("dsl.snapshot answers %d bytes that are not a fresh snapshot's %d", len(enc), len(snap.Encode()))
	default:
		if cached, err = meta.DecodeSnapshot(enc); err != nil {
			fail("dsl.snapshot: %v", err)
		}
		if cached.NumFiles() != len(listed.files) {
			fail("dsl.snapshot holds %d files, want %d", cached.NumFiles(), len(listed.files))
		}
	}

	for _, dir := range append(slices.Clone(modelDirs), modelMissingDirs...) {
		got, err := lsRPC(r.c, modelDataset, dir)
		switch {
		case !listed.exists:
			if !remoteIs(err, ErrNoSuchDataset) {
				fail("ls %q of a dataset that does not exist: %v, %v", dir, got, err)
			}
			continue
		case !listed.dirExists(dir):
			if !remoteIs(err, meta.ErrNotExist) {
				fail("ls %q of a missing directory: %v, %v", dir, got, err)
			}
			if cgot, cerr := cached.List(dir); !errors.Is(cerr, meta.ErrNotExist) {
				fail("dsl.snapshot list %q of a missing directory: %v, %v", dir, cgot, cerr)
			}
		default:
			want := listed.list(dir)
			if err != nil || !slices.Equal(got, want) {
				fail("ls %q = %v, %v; want %v", dir, got, err, want)
			}
			if cgot, cerr := cached.List(dir); cerr != nil || !slices.Equal(cgot, want) {
				fail("dsl.snapshot list %q = %v, %v; want %v", dir, cgot, cerr, want)
			}
		}
		sgot, serr := snap.List(dir)
		if !m.dirExists(dir) {
			if !errors.Is(serr, meta.ErrNotExist) {
				fail("snapshot list %q of a missing directory: %v, %v", dir, sgot, serr)
			}
		} else if want := m.list(dir); serr != nil || !slices.Equal(sgot, want) {
			fail("snapshot list %q = %v, %v; want %v", dir, sgot, serr, want)
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
// the server, checking every reader after each. A seeded share of the
// changes is held between its data writes and its stamp, and checked
// there: a listing is as of the last stamp, a point read as of the last
// record.
func runModel(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	r := newModelRig(t)
	m := newModel()
	version := 0
	r.check(t, "empty", m, m)
	for step := range 14 {
		r.sec += uint32(rng.Intn(3))
		prev := m.clone()
		listed := prev // the listing while the change is held before its stamp
		var what string
		var op func() error // the step's server call, checked against m
		hold, during := &r.holdStamp, func() {
			r.check(t, fmt.Sprintf("step %d, %s held before its stamp", step, what), listed, m)
		}
		switch roll := rng.Intn(100); {
		case roll < 30: // ingest, overwriting what it draws
			c := modelChunkOf(rng, r.sec, &version)
			what = fmt.Sprintf("ingest %v", c.names)
			_, enc := r.seal(t, r.gen, c)
			op = func() error { _, err := r.s.Ingest(modelDataset, enc); return err }
			m.exists = true
			m.chunks = append(m.chunks, c)
			m.put(c)

		case roll < 38: // an ingest under the ID of a stored chunk: refused
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
			op = func() error {
				if _, err := r.s.Ingest(modelDataset, enc); !errors.Is(err, objstore.ErrExists) {
					return fmt.Errorf("%v, want objstore.ErrExists", err)
				}
				return nil
			}

		case roll < 48: // an ingest held with its file records half landed
			c := modelChunkOf(rng, r.sec, &version)
			what = fmt.Sprintf("held ingest %v", c.names)
			id, enc := r.seal(t, r.gen, c)
			op = func() error { _, err := r.s.Ingest(modelDataset, enc); return err }
			hold, during = &r.holdMSet, func() {
				// The committed view: the model before the ingest, less the
				// paths whose records now name the uncommitted chunk.
				view := prev.clone()
				for _, n := range c.names {
					b, err := r.kv.Get(meta.FileKey(modelDataset, n))
					if err != nil {
						continue
					}
					if fr, err := meta.DecodeFileRecord(b); err == nil && fr.ChunkID == id {
						delete(view.files, n)
					}
				}
				r.check(t, fmt.Sprintf("step %d, during %s", step, what), prev, view)
			}
			m.exists = true
			m.chunks = append(m.chunks, c)
			m.put(c)

		case roll < 67: // delete, of a live path or a missing one
			p := modelPaths[rng.Intn(len(modelPaths))]
			what = "delete " + p
			_, live := m.files[p]
			op = func() error {
				switch err := r.s.deleteFile(modelDataset, p); {
				case live:
					return err
				case !errors.Is(err, ErrNoSuchFile):
					return fmt.Errorf("of a missing file: %v, want ErrNoSuchFile", err)
				}
				return nil
			}
			delete(m.files, p)
			delete(m.loc, p)

		case roll < 79:
			what = "purge"
			want := m.purge(r.sec)
			op = func() error {
				if st, err := r.s.purge(modelDataset, r.gen); err != nil || st != want {
					return fmt.Errorf("%+v, %v; want %+v", st, err, want)
				}
				return nil
			}

		case roll < 87: // recovery (a): the records of recent chunks are lost
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
				m.put(c)
			}
			skipped := len(m.chunks) - scanned
			op = func() error {
				st, err := r.s.RecoverMetadata(modelDataset, from)
				if err != nil || st.ChunksScanned != scanned || st.ChunksSkipped != skipped {
					return fmt.Errorf("%+v, %v; want %d scanned, %d skipped", st, err, scanned, skipped)
				}
				return nil
			}
			m.exists = m.exists || scanned > 0

		case roll < 95: // recovery (b): every record is lost
			what = "recover (b)"
			r.kv.FlushAll()
			op = func() error { _, err := r.s.RecoverMetadata(modelDataset, 0); return err }
			listed = newModel() // the dataset record is lost too
			chunks := m.chunks
			m = newModel()
			m.chunks = chunks
			for _, c := range chunks {
				m.put(c)
			}
			m.exists = len(chunks) > 0

		default:
			what = "delete dataset"
			op = func() error { return r.s.DeleteDataset(modelDataset) }
			m = newModel()
		}
		if op != nil {
			var err error
			if hold == &r.holdMSet || rng.Intn(4) == 0 {
				err = r.holding(hold, op, during)
			} else {
				err = op()
			}
			if err != nil {
				t.Fatalf("step %d: %s: %v", step, what, err)
			}
		}
		r.check(t, fmt.Sprintf("step %d, after %s", step, what), m, m)
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
