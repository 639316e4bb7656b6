package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"diesel/internal/chunk"
	"diesel/internal/kvstore"
	"diesel/internal/meta"
	"diesel/internal/objstore"
)

// The kill-anywhere test: each metadata write (ingest, delete, purge,
// dataset deletion, recovery) is cut short at every one of its write steps
// and then run again, once on a fresh Server — a restart — and once on a
// second Server that was live all along and built its view before the op.
// While the op is cut short every point read gives an answer the op may
// give on its way (the model's bytes before it, after it, or none), and
// once it has run again every reader gives the model's answer, and a
// snapshot saved before the op is stale.

// errCrash is what a write fails with once the crash has happened.
var errCrash = errors.New("crash")

// crashAt fails the k-th write through its wrappers and every write after
// it: a process that died there. k = 0 fails none; the wrappers count the
// writes either way.
type crashAt struct {
	k      int64
	writes atomic.Int64
}

func (c *crashAt) crashed() bool {
	return c.writes.Add(1) >= c.k && c.k > 0
}

// crashKV is a Backend whose writes stop at the crash. The MSet the crash
// falls on lands a prefix of its pairs, as a KV cluster's fan-out can.
type crashKV struct {
	*kvstore.Local
	c *crashAt
}

func (k crashKV) Set(key string, value []byte) error {
	if k.c.crashed() {
		return errCrash
	}
	return k.Local.Set(key, value)
}

func (k crashKV) MSet(pairs []kvstore.KV) error {
	if k.c.crashed() {
		if err := k.Local.MSet(pairs[:len(pairs)/2]); err != nil {
			return err
		}
		return errCrash
	}
	return k.Local.MSet(pairs)
}

func (k crashKV) Del(key string) (bool, error) {
	if k.c.crashed() {
		return false, errCrash
	}
	return k.Local.Del(key)
}

// crashObjects is an object store whose writes stop at the crash.
type crashObjects struct {
	*objstore.Memory
	c *crashAt
}

func (o crashObjects) Put(key string, data []byte) error {
	if o.c.crashed() {
		return errCrash
	}
	return o.Memory.Put(key, data)
}

func (o crashObjects) Delete(key string) error {
	if o.c.crashed() {
		return errCrash
	}
	return o.Memory.Delete(key)
}

// crashStores is one kill-anywhere case's stores, seeded with two chunks:
// c1 {a/x, a/y, b/z} and c2 {a/x, x, y}, then b/z and y deleted. Both
// chunks are holed, so a purge carries from each. m is the model of it.
type crashStores struct {
	kv     *kvstore.Local
	obj    *objstore.Memory
	m      *model
	c1, c2 *modelChunk
	now    atomic.Int64 // every server's clock: stamps rise across servers
	ids    atomic.Int32 // hands each server's ID generator its own machine
}

func newCrashStores(t *testing.T) *crashStores {
	f := &crashStores{kv: kvstore.NewLocal(), obj: objstore.NewMemory(), m: newModel()}
	f.c1 = &modelChunk{sec: 100, names: []string{"a/x", "a/y", "b/z"}, data: [][]byte{[]byte("a/x@1"), []byte("a/y@1"), []byte("b/z@1")}}
	f.c2 = &modelChunk{sec: 101, names: []string{"a/x", "x", "y"}, data: [][]byte{[]byte("a/x@2"), []byte("x@2"), []byte("y@2")}}
	s := f.server(nil)
	for _, c := range []*modelChunk{f.c1, f.c2} {
		if _, err := s.Ingest(modelDataset, f.seal(t, c)); err != nil {
			t.Fatal(err)
		}
		f.m.chunks = append(f.m.chunks, c)
		f.m.put(c)
	}
	for _, p := range []string{"b/z", "y"} {
		if err := s.deleteFile(modelDataset, p); err != nil {
			t.Fatal(err)
		}
		delete(f.m.files, p)
		delete(f.m.loc, p)
	}
	f.m.exists = true
	return f
}

// server returns a Server over the stores, through crash's wrappers when
// crash is not nil.
func (f *crashStores) server(crash *crashAt) *Server {
	now := func() int64 { return f.now.Add(1) }
	if crash == nil {
		return New(f.kv, f.obj, now)
	}
	return New(crashKV{f.kv, crash}, crashObjects{f.obj, crash}, now)
}

// gen returns an ID generator no other server of the stores shares.
func (f *crashStores) gen() *chunk.IDGenerator {
	return chunk.NewIDGeneratorAt([6]byte{9, byte(f.ids.Add(1))}, 1, func() uint32 { return 102 })
}

// seal encodes c under an ID of its second.
func (f *crashStores) seal(t *testing.T, c *modelChunk) []byte {
	gen := chunk.NewIDGeneratorAt([6]byte{8, byte(c.sec)}, 1, func() uint32 { return c.sec })
	var files []string
	for i, n := range c.names {
		files = append(files, n, string(c.data[i]))
	}
	return sealOne(t, gen, func() int64 { return f.now.Add(1) }, files...)
}

// crashOp is one metadata write under test.
type crashOp struct {
	name string
	// prep readies the stores for the op and returns it, to run on a given
	// server, and what the point readers may answer while it is cut short:
	// the model before the op first, then the model after it, then any the
	// op passes through on its way.
	prep func(t *testing.T, f *crashStores) (run func(*Server) error, states []*model)
	// missingAgain: a run again after a crash may answer ErrNoSuchFile
	// (the first run's Del landed); otherwise it must return nil.
	missingAgain bool
	// goneObjects: a chunk's object may go before its records, so a read
	// during a crash may meet objstore.ErrNotFound.
	goneObjects bool
}

var crashOps = []crashOp{
	{
		name: "ingest",
		prep: func(t *testing.T, f *crashStores) (func(*Server) error, []*model) {
			c := &modelChunk{sec: 102, names: []string{"a/y", "b/b/z"}, data: [][]byte{[]byte("a/y@3"), []byte("b/b/z@3")}}
			enc := f.seal(t, c)
			after := f.m.clone()
			after.chunks = append(after.chunks, c)
			after.put(c)
			return func(s *Server) error {
				_, err := s.Ingest(modelDataset, bytes.Clone(enc)) // the same bytes each run
				return err
			}, []*model{f.m, after}
		},
	},
	{
		name: "delete",
		prep: func(t *testing.T, f *crashStores) (func(*Server) error, []*model) {
			after := f.m.clone()
			delete(after.files, "x")
			delete(after.loc, "x")
			return func(s *Server) error { return s.deleteFile(modelDataset, "x") }, []*model{f.m, after}
		},
		missingAgain: true,
	},
	{
		name: "purge",
		prep: func(t *testing.T, f *crashStores) (func(*Server) error, []*model) {
			after := f.m.clone()
			after.purge(102)
			return func(s *Server) error { _, err := s.purge(modelDataset, f.gen()); return err }, []*model{f.m, after}
		},
	},
	{
		name: "delete dataset",
		prep: func(t *testing.T, f *crashStores) (func(*Server) error, []*model) {
			return func(s *Server) error { return s.DeleteDataset(modelDataset) }, []*model{f.m, newModel()}
		},
		goneObjects: true,
	},
	{
		// §4.1.2 scenario (b): every record is lost, and the chunks are
		// rescanned. On its way a path written in both chunks reads its
		// first version, and the deleted ones come back: a delete is durable
		// only after a purge (TestPurgeMakesDeletesDurable).
		name: "recover",
		prep: func(t *testing.T, f *crashStores) (func(*Server) error, []*model) {
			if err := f.kv.FlushAll(); err != nil {
				t.Fatal(err)
			}
			first, after := newModel(), newModel()
			first.put(f.c1)
			after.put(f.c1)
			after.put(f.c2)
			after.chunks = []*modelChunk{f.c1, f.c2}
			after.exists = true
			return func(s *Server) error {
				_, err := s.RecoverMetadata(modelDataset, 0)
				return err
			}, []*model{newModel(), after, first}
		},
	},
}

// crashCase seeds the stores, readies op, and has a Server that built its
// view of them before the op and a snapshot saved then.
func crashCase(t *testing.T, op crashOp) (f *crashStores, run func(*Server) error, states []*model, live *Server, saved *meta.Snapshot) {
	f = newCrashStores(t)
	live = f.server(nil)
	saved = snapshotOf(t, live, modelDataset)
	if _, err := live.viewOf(modelDataset); err != nil {
		t.Fatal(err)
	}
	for _, p := range modelPaths { // and cached the shapes of its chunks
		getFile(live, modelDataset, p)
	}
	run, states = op.prep(t, f)
	return f, run, states, live, saved
}

func TestKillAnywhere(t *testing.T) {
	for _, op := range crashOps {
		t.Run(op.name, func(t *testing.T) {
			f, run, _, _, _ := crashCase(t, op)
			count := &crashAt{}
			if err := run(f.server(count)); err != nil {
				t.Fatalf("uncut: %v", err)
			}
			steps := count.writes.Load()
			for k := int64(1); k <= steps; k++ {
				for _, again := range []string{"restart", "live"} {
					t.Run(fmt.Sprintf("write %d of %d, again on %s", k, steps, again), func(t *testing.T) {
						killAnywhere(t, op, k, again == "live")
					})
				}
			}
		})
	}
}

// killAnywhere cuts op short at its k-th write, checks the point readers,
// runs op again on a fresh Server or on the live one, and checks every
// reader of both.
func killAnywhere(t *testing.T, op crashOp, k int64, onLive bool) {
	f, run, states, live, saved := crashCase(t, op)
	before, after := states[0], states[1]
	if err := run(f.server(&crashAt{k: k})); !errors.Is(err, errCrash) {
		t.Fatalf("cut short: %v, want the crash", err)
	}

	// Meanwhile a point read answers as one of states does, or finds
	// nothing; inside a dataset deletion it may find no object.
	reader := f.server(nil)
	batch, batchErr := reader.GetFilesContext(context.Background(), modelDataset, modelPaths)
	if batchErr != nil && !(op.goneObjects && errors.Is(batchErr, objstore.ErrNotFound)) {
		t.Errorf("batch while cut short: %v", batchErr)
	}
	for i, p := range modelPaths {
		if got, err := getFile(reader, modelDataset, p); !crashAllowed(op, states, got, p, err) {
			t.Errorf("get %s while cut short = %q, %v; before %q, after %q", p, got, err, before.files[p], after.files[p])
		}
		if batchErr == nil && batch[i] != nil && !crashAllowed(op, states, batch[i], p, nil) {
			t.Errorf("batch entry %s while cut short = %q; before %q, after %q", p, batch[i], before.files[p], after.files[p])
		}
	}

	again := f.server(nil)
	if onLive {
		again = live
	}
	if err := run(again); err != nil && !(op.missingAgain && errors.Is(err, ErrNoSuchFile)) {
		t.Fatalf("run again: %v", err)
	}
	if rec, err := again.datasetRecord(modelDataset); err == nil && saved.Validate(rec) == nil {
		t.Errorf("a snapshot saved before the op still validates at stamp %d", rec.UpdatedNS)
	}
	other := live
	if onLive {
		other = f.server(nil)
	}
	for i, s := range []*Server{again, other} {
		_, c := serveRPC(t, s)
		r := &modelRig{s: s, kv: f.kv, obj: f.obj, c: c}
		r.check(t, fmt.Sprintf("after the run again, server %d", i), after, after)
	}
}

// crashAllowed reports whether got or err, a point read of p while op is
// cut short, is an answer the op may give on its way.
func crashAllowed(op crashOp, states []*model, got []byte, p string, err error) bool {
	switch {
	case errors.Is(err, ErrNoSuchFile):
		return true
	case err != nil:
		return op.goneObjects && errors.Is(err, objstore.ErrNotFound)
	}
	for _, m := range states {
		if want, ok := m.files[p]; ok && bytes.Equal(got, want) {
			return true
		}
	}
	return false
}

// TestTwoPurgesAtOnce: a purge retried beside its first attempt — two
// purges of one dataset on two servers at once — leaves every file
// readable with its bytes.
func TestTwoPurgesAtOnce(t *testing.T) {
	for round := range 20 {
		f := newCrashStores(t)
		var wg sync.WaitGroup
		errs := make([]error, 2)
		start := make(chan struct{})
		for i := range errs {
			s, gen := f.server(nil), f.gen()
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				_, errs[i] = s.purge(modelDataset, gen)
			}()
		}
		close(start)
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d: purge %d: %v", round, i, err)
			}
		}
		s := f.server(nil)
		_, c := serveRPC(t, s)
		r := &modelRig{s: s, kv: f.kv, obj: f.obj, c: c}
		r.check(t, fmt.Sprintf("round %d, after two purges at once", round), f.m, f.m)
	}
}
