package objstore

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestTieredSpillAbsorbsEvictions: objects evicted from the fast tier
// come back from the spill level without touching the slow store.
func TestTieredSpillAbsorbsEvictions(t *testing.T) {
	slow := NewMemory()
	tr := NewTiered(nil, slow, 2*100)
	if _, err := tr.EnableSpill(t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	objs := map[string][]byte{}
	var keys []string
	for i := range 8 {
		k := fmt.Sprintf("ds/chunk%02d", i)
		keys = append(keys, k)
		objs[k] = bytes.Repeat([]byte{byte(i)}, 100)
		if err := tr.Put(k, objs[k]); err != nil {
			t.Fatal(err)
		}
	}
	// First pass: every Get promotes, evicting earlier keys into spill.
	if missed := slowReads(t, tr, slow, keys...); len(missed) != len(keys) {
		t.Fatalf("first pass read the slow tier for %d of %d keys", len(missed), len(keys))
	}
	if st := tr.SpillStats(); !st.Enabled || st.Demotions == 0 || st.Entries == 0 {
		t.Fatalf("no demotions: %+v", st)
	}
	// Second pass: fast tier holds 2 objects, spill the rest; the slow
	// store must not be consulted again.
	slowGets := slow.Snapshot().Gets
	for k, want := range objs {
		got, err := tr.Get(k)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%s): %v", k, err)
		}
	}
	if got := slow.Snapshot().Gets; got != slowGets {
		t.Fatalf("second pass read the slow tier: %d -> %d gets", slowGets, got)
	}
	if st := tr.SpillStats(); st.Hits == 0 {
		t.Fatalf("second pass recorded no spill hits: %+v", st)
	}

	// Ranges are served from spill too, without promotion. Whatever the
	// last pass left in the fast tier, at most 2 of these 3 are there.
	fastBytes := tr.FastBytes()
	for _, k := range keys[:3] {
		got, err := tr.GetRange(k, 10, 20)
		if err != nil || !bytes.Equal(got, objs[k][10:30]) {
			t.Fatalf("GetRange(%s): %v", k, err)
		}
		if got, err := tr.GetRange(k, 90, -1); err != nil || !bytes.Equal(got, objs[k][90:]) {
			t.Fatalf("GetRange(%s, 90, -1): %v", k, err)
		}
	}
	if slow.Snapshot().Gets != slowGets {
		t.Fatal("range read fell through to the slow tier")
	}
	if tr.FastBytes() != fastBytes {
		t.Fatal("range read promoted")
	}

	per := tr.PerDatasetBytes()
	if tb := per["ds"]; tb.FastBytes == 0 || tb.SpillBytes == 0 {
		t.Fatalf("per-dataset accounting empty: %+v", per)
	}
}

// TestTieredSpillInvalidation: Put and Delete must remove the spilled
// copy, or a restart would serve stale bytes.
func TestTieredSpillInvalidation(t *testing.T) {
	dir := t.TempDir()
	slow := NewMemory()
	tr := NewTiered(nil, slow, 100)
	if _, err := tr.EnableSpill(dir, 0); err != nil {
		t.Fatal(err)
	}
	tr.Put("ds/a", bytes.Repeat([]byte{1}, 100))
	tr.Put("ds/b", bytes.Repeat([]byte{2}, 100))
	tr.Put("ds/c", bytes.Repeat([]byte{3}, 100))
	tr.Get("ds/a") // promote
	tr.Get("ds/b") // evicts ds/a → spill
	tr.Get("ds/c") // evicts ds/b → spill
	if st := tr.SpillStats(); st.Entries != 2 {
		t.Fatalf("want ds/a and ds/b spilled: %+v", st)
	}
	fresh := bytes.Repeat([]byte{9}, 100)
	tr.Put("ds/a", fresh) // must invalidate the spilled copy
	got, err := tr.Get("ds/a")
	if err != nil || !bytes.Equal(got, fresh) {
		t.Fatalf("Get after overwrite: %v", err)
	}
	tr.Delete("ds/b")
	if _, err := tr.Get("ds/b"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete: %v", err)
	}
	tr.Close()

	// Restart over the same dir: neither must come back from the rewarm.
	tr2 := NewTiered(nil, slow, 100)
	if _, err := tr2.EnableSpill(dir, 0); err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	got, err = tr2.Get("ds/a")
	if err != nil || !bytes.Equal(got, fresh) {
		t.Fatalf("post-restart Get: %v (stale spill copy?)", err)
	}
	if _, err := tr2.Get("ds/b"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("post-restart Get of a deleted object: %v", err)
	}
}

// gatedStore is a Memory whose Get, once armed, parks after it has read
// the object, until released — the window in which a slow-tier read is
// in flight while the object changes.
type gatedStore struct {
	*Memory
	armed   atomic.Bool
	reached chan struct{}
	release chan struct{}
}

func (g *gatedStore) Get(key string) ([]byte, error) {
	b, err := g.Memory.Get(key)
	if g.armed.CompareAndSwap(true, false) {
		close(g.reached)
		<-g.release
	}
	return b, err
}

// TestTieredInvalidationBeatsInflightFill: a Get that read the slow tier
// before a concurrent Delete or Put must not cache what it read — or the
// deleted or overwritten object is served from the fast tier forever.
func TestTieredInvalidationBeatsInflightFill(t *testing.T) {
	for _, overwrite := range []bool{false, true} {
		slow := &gatedStore{Memory: NewMemory(), reached: make(chan struct{}), release: make(chan struct{})}
		tr := NewTiered(nil, slow, 1000)
		tr.Put("k", []byte("old"))

		slow.armed.Store(true)
		done := make(chan struct{})
		go func() {
			defer close(done)
			tr.Get("k") // reads "old", then parks before filling the fast tier
		}()
		<-slow.reached
		if overwrite {
			tr.Put("k", []byte("new"))
		} else {
			tr.Delete("k")
		}
		close(slow.release)
		<-done

		got, err := tr.Get("k")
		if overwrite && (err != nil || string(got) != "new") {
			t.Errorf("after overwrite: Get = %q, %v; the in-flight fill cached the old object", got, err)
		}
		if !overwrite && !errors.Is(err, ErrNotFound) {
			t.Errorf("after delete: Get = %q, %v; the in-flight fill cached the deleted object", got, err)
		}
	}
}

// TestTieredEvictionRacesRepromotion: with a fast tier one object short
// of the key set, concurrent readers evict and re-promote the same keys
// constantly (the spill level makes each eviction take a disk write's
// time). An entry must never be left indexed without its bytes: checked
// whenever the readers pause, a read counted as a fast-tier hit is served
// by the fast tier, not by a lower level, and the budget is only charged
// for bytes that are there.
func TestTieredEvictionRacesRepromotion(t *testing.T) {
	const keys, size, rounds, readers = 3, 64, 300, 4
	slow := NewMemory()
	tr := NewTiered(nil, slow, (keys-1)*size)
	if _, err := tr.EnableSpill(t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	key := func(i int) string { return fmt.Sprintf("o%d", i%keys) }
	for i := range keys {
		tr.Put(key(i), bytes.Repeat([]byte{byte(i)}, size))
	}
	for round := range rounds {
		var wg sync.WaitGroup
		for w := range readers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range keys {
					tr.Get(key(round + w + i))
				}
			}()
		}
		wg.Wait()

		resident := 0
		for i := range keys {
			hits, lower := tr.HitCount(), slow.Snapshot().Gets+tr.SpillStats().Hits
			if _, err := tr.GetRange(key(i), 0, 1); err != nil { // a range read promotes nothing
				t.Fatal(err)
			}
			if tr.HitCount() == hits {
				continue
			}
			resident++
			if slow.Snapshot().Gets+tr.SpillStats().Hits != lower {
				t.Fatalf("round %d: GetRange(%s) counted a fast-tier hit and still read a lower level: index entry without bytes",
					round, key(i))
			}
		}
		if got := tr.FastBytes(); got != int64(resident*size) {
			t.Fatalf("round %d: fast tier charged %d bytes for %d resident objects of %d", round, got, resident, size)
		}
	}
}
