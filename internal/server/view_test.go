package server

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"diesel/internal/chunk"
	"diesel/internal/kvstore"
	"diesel/internal/meta"
	"diesel/internal/objstore"
	"diesel/internal/wire"
)

// snapshotRPC downloads dataset's encoded snapshot through dsl.snapshot.
func snapshotRPC(c *wire.Client, dataset string) ([]byte, error) {
	return c.Call(MethodSnapshot, encStrings(dataset))
}

// viewRig is a server whose clock never moves, over a KV database that
// logs each call as its op and key kind ("get ds|", "scan ck|", …), and a
// wire client of it.
type viewRig struct {
	s     *Server
	local *kvstore.Local
	c     *wire.Client
	gen   *chunk.IDGenerator
	mu    sync.Mutex
	calls []string
}

func newViewRig(t *testing.T) *viewRig {
	r := &viewRig{local: kvstore.NewLocal()}
	kv := hookedKV{Local: r.local, hook: func(op, key string) {
		r.mu.Lock()
		r.calls = append(r.calls, op+" "+key[:strings.IndexByte(key, '|')+1])
		r.mu.Unlock()
	}}
	r.s = New(kv, objstore.NewMemory(), func() int64 { return 1 })
	r.gen = chunk.NewIDGeneratorAt([6]byte{7}, 1, func() uint32 { return 100 })
	_, r.c = serveRPC(t, r.s)
	return r
}

// taken returns the KV calls made since the last taken.
func (r *viewRig) taken() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.calls
	r.calls = nil
	return out
}

// ls lists dir through dsl.ls and returns the listing and the KV calls it
// made.
func (r *viewRig) ls(t *testing.T, dir string) ([]meta.DirEntry, []string) {
	t.Helper()
	r.taken()
	got, err := lsRPC(r.c, "ds", dir)
	if err != nil {
		t.Fatalf("ls %q: %v", dir, err)
	}
	return got, r.taken()
}

func (r *viewRig) ingest(t *testing.T, files ...string) {
	t.Helper()
	if _, err := r.s.Ingest("ds", sealOne(t, r.gen, r.s.nowNS, files...)); err != nil {
		t.Fatal(err)
	}
}

// The KV calls of a warm call, and of one that rebuilds the view: the
// record read, then BuildSnapshot's record read and its two scans.
var (
	warmCalls    = []string{"get ds|"}
	rebuildCalls = []string{"get ds|", "get ds|", "scan ck|", "scan f|"}
)

// TestWarmViewIsOneGet: while the dataset's stamp holds, dsl.ls and
// dsl.snapshot each cost the KV database one Get of its record — no scan —
// and answer what a fresh build would.
func TestWarmViewIsOneGet(t *testing.T) {
	r := newViewRig(t)
	r.ingest(t, "d/a", "aa", "d/b", "bb", "e", "eee")
	want := []meta.DirEntry{{Name: "a", Size: 2}, {Name: "b", Size: 2}}
	if got, calls := r.ls(t, "d"); !slices.Equal(got, want) || !slices.Equal(calls, rebuildCalls) {
		t.Fatalf("cold ls = %v with KV calls %q; want %v with %q", got, calls, want, rebuildCalls)
	}
	for range 3 {
		if got, calls := r.ls(t, "d"); !slices.Equal(got, want) || !slices.Equal(calls, warmCalls) {
			t.Errorf("warm ls = %v with KV calls %q; want %v with %q", got, calls, want, warmCalls)
		}
	}
	fresh := snapshotOf(t, r.s, "ds").Encode()
	r.taken()
	for range 3 {
		got, err := snapshotRPC(r.c, "ds")
		if calls := r.taken(); err != nil || !slices.Equal(calls, warmCalls) {
			t.Errorf("warm dsl.snapshot: %v with KV calls %q; want %q", err, calls, warmCalls)
		}
		if string(got) != string(fresh) {
			t.Errorf("warm dsl.snapshot answers %d bytes, a fresh build encodes %d", len(got), len(fresh))
		}
	}
}

// TestViewRebuildsAfterEachChange: every change stamps the dataset, and
// the next dsl.ls rebuilds the view once and lists the change, though the
// server's clock never moves. A metadata loss is no change: the listing
// keeps the lost file until recovery stamps.
func TestViewRebuildsAfterEachChange(t *testing.T) {
	r := newViewRig(t)
	r.ingest(t, "d/a", "aa", "d/b", "bb")
	r.ls(t, "d")
	a, b, c := meta.DirEntry{Name: "a", Size: 2}, meta.DirEntry{Name: "b", Size: 2}, meta.DirEntry{Name: "c", Size: 3}
	for _, step := range []struct {
		what   string
		change func() error
		want   []meta.DirEntry
	}{
		{"ingest", func() error { r.ingest(t, "d/c", "ccc"); return nil }, []meta.DirEntry{a, b, c}},
		{"delete", func() error { return r.s.deleteFile("ds", "d/b") }, []meta.DirEntry{a, c}},
		{"purge", func() error { _, err := r.s.purge("ds", r.gen); return err }, []meta.DirEntry{a, c}},
		{"recover", func() error {
			r.local.Del(meta.FileKey("ds", "d/a")) // lost, not deleted: no stamp
			if got, calls := r.ls(t, "d"); !slices.Equal(got, []meta.DirEntry{a, c}) || !slices.Equal(calls, warmCalls) {
				t.Errorf("ls after a lost record = %v with KV calls %q; want the last stamp's listing from the cache", got, calls)
			}
			_, err := r.s.RecoverMetadata("ds", 0)
			return err
		}, []meta.DirEntry{a, c}},
	} {
		if err := step.change(); err != nil {
			t.Fatalf("%s: %v", step.what, err)
		}
		if got, calls := r.ls(t, "d"); !slices.Equal(got, step.want) || !slices.Equal(calls, rebuildCalls) {
			t.Errorf("ls after %s = %v with KV calls %q; want %v with a rebuild's %q", step.what, got, calls, step.want, rebuildCalls)
		}
		if got, calls := r.ls(t, "d"); !slices.Equal(got, step.want) || !slices.Equal(calls, warmCalls) {
			t.Errorf("second ls after %s = %v with KV calls %q; want %v with %q", step.what, got, calls, step.want, warmCalls)
		}
	}
}

// TestDeletedDatasetHasNoView: once a dataset is deleted, dsl.ls and
// dsl.snapshot answer ErrNoSuchDataset, and a dataset written again under
// its name lists only its new files.
func TestDeletedDatasetHasNoView(t *testing.T) {
	r := newViewRig(t)
	r.ingest(t, "old", "o")
	r.ls(t, "")
	if _, err := snapshotRPC(r.c, "ds"); err != nil {
		t.Fatal(err)
	}
	if err := r.s.DeleteDataset("ds"); err != nil {
		t.Fatal(err)
	}
	if got, err := lsRPC(r.c, "ds", ""); !remoteIs(err, ErrNoSuchDataset) {
		t.Errorf("ls of a deleted dataset = %v, %v; want %q", got, err, ErrNoSuchDataset)
	}
	if _, err := snapshotRPC(r.c, "ds"); !remoteIs(err, ErrNoSuchDataset) {
		t.Errorf("dsl.snapshot of a deleted dataset: %v; want %q", err, ErrNoSuchDataset)
	}
	r.ingest(t, "new", "nn")
	want := []meta.DirEntry{{Name: "new", Size: 2}}
	if got, _ := r.ls(t, ""); !slices.Equal(got, want) {
		t.Errorf("ls of the dataset written again = %v, want %v", got, want)
	}
	b, err := snapshotRPC(r.c, "ds")
	if err != nil {
		t.Fatal(err)
	}
	if snap, err := meta.DecodeSnapshot(b); err != nil || snap.NumFiles() != 1 {
		t.Errorf("dsl.snapshot of the dataset written again: %v; want its 1 file", err)
	}
}

// TestViewUnderConcurrentIngest: readers list and download the snapshot
// from several goroutines while a writer ingests one file at a time. Every
// answer is the view after some number of those ingests, and once the
// writer is done the listing holds every file.
func TestViewUnderConcurrentIngest(t *testing.T) {
	r := newViewRig(t)
	const files, readers = 40, 4
	names := make([]string, files)
	for i := range names {
		names[i] = fmt.Sprintf("f%03d", i)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				got, err := lsRPC(r.c, "ds", "d")
				if remoteIs(err, ErrNoSuchDataset) {
					continue
				}
				if err != nil || len(got) > files || !slices.Equal(entryNames(got), names[:len(got)]) {
					t.Errorf("ls during ingests = %v, %v; want a prefix of %v", got, err, names)
					return
				}
				b, err := snapshotRPC(r.c, "ds")
				if err != nil {
					t.Error(err)
					return
				}
				if snap, err := meta.DecodeSnapshot(b); err != nil || snap.NumFiles() < len(got) {
					t.Errorf("dsl.snapshot after a listing of %d files: %v", len(got), err)
					return
				}
			}
		}()
	}
	for _, n := range names {
		r.ingest(t, "d/"+n, "x")
	}
	close(done)
	wg.Wait()
	if got, _ := r.ls(t, "d"); !slices.Equal(entryNames(got), names) {
		t.Errorf("ls after the ingests = %v, want %v", got, names)
	}
}

func entryNames(ents []meta.DirEntry) []string {
	out := make([]string, len(ents))
	for i, e := range ents {
		out[i] = e.Name
	}
	return out
}
