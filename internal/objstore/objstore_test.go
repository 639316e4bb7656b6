package objstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// storeContract runs the behaviour every Store implementation must satisfy.
func storeContract(t *testing.T, s Store) {
	t.Helper()

	if _, err := s.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get missing: %v", err)
	}
	if _, err := s.Size("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Size missing: %v", err)
	}
	if err := s.Delete("nope"); err != nil {
		t.Errorf("Delete missing should be nil: %v", err)
	}

	data := []byte("hello chunk world")
	if err := s.Put("ds/c1", data); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := s.Get("ds/c1")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get = %q, %v", got, err)
	}
	n, err := s.Size("ds/c1")
	if err != nil || n != int64(len(data)) {
		t.Fatalf("Size = %d, %v", n, err)
	}

	// Create-only: a taken key keeps its object; Delete frees it.
	if err := s.Put("ds/c1", []byte("short")); !errors.Is(err, ErrExists) {
		t.Fatalf("Put of a taken key: %v, want ErrExists", err)
	}
	if got, _ := s.Get("ds/c1"); !bytes.Equal(got, data) {
		t.Fatalf("a refused Put changed the object: %q", got)
	}
	if err := s.Delete("ds/c1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("ds/c1", []byte("short")); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get("ds/c1"); string(got) != "short" {
		t.Fatalf("Put after Delete: %q", got)
	}

	// Ownership: Put takes data over (the caller never writes to it again),
	// and in return the object stays what was put — a reader's copy is its
	// own, and the key's next object, created after a Delete, is a new
	// one, never written into the slice an earlier Put handed over, which
	// a reader may still hold on loan.
	owned := []byte("the store's now")
	if err := s.Put("ds/own", owned); err != nil {
		t.Fatal(err)
	}
	got, _ = s.Get("ds/own")
	got[0] ^= 0xFF
	if got, _ := s.Get("ds/own"); string(got) != "the store's now" {
		t.Errorf("a reader's write to its copy reached the store: %q", got)
	}
	if err := s.Delete("ds/own"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("ds/own", []byte("a second object")); err != nil { // same length
		t.Fatal(err)
	}
	if string(owned) != "the store's now" {
		t.Errorf("Put wrote into the slice an earlier Put handed over: %q", owned)
	}
	if err := s.Delete("ds/own"); err != nil {
		t.Fatal(err)
	}

	// Ranges.
	s.Put("ds/c2", []byte("0123456789"))
	for _, tc := range []struct {
		off, n int64
		want   string
	}{
		{0, 4, "0123"}, {5, 3, "567"}, {5, -1, "56789"}, {9, 100, "9"}, {10, 5, ""}, {0, 0, ""},
	} {
		got, err := s.GetRange("ds/c2", tc.off, tc.n)
		if err != nil {
			t.Errorf("GetRange(%d,%d): %v", tc.off, tc.n, err)
			continue
		}
		if string(got) != tc.want {
			t.Errorf("GetRange(%d,%d) = %q, want %q", tc.off, tc.n, got, tc.want)
		}
	}
	if _, err := s.GetRange("ds/c2", -1, 5); err == nil {
		t.Error("negative offset accepted")
	}
	if _, err := s.GetRange("ds/c2", 11, 5); err == nil {
		t.Error("offset past end accepted")
	}
	if _, err := s.GetRange("nope", 0, 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("GetRange missing: %v", err)
	}

	// List ordering and prefix filtering.
	s.Put("ds/c0", []byte("x"))
	s.Put("other/c9", []byte("y"))
	keys, err := s.List("ds/")
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	want := []string{"ds/c0", "ds/c1", "ds/c2"}
	if len(keys) != len(want) {
		t.Fatalf("List = %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("List[%d] = %q, want %q", i, keys[i], want[i])
		}
	}

	// Delete removes from listing.
	if err := s.Delete("ds/c1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("ds/c1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted object readable: %v", err)
	}
	keys, _ = s.List("ds/")
	if len(keys) != 2 {
		t.Errorf("List after delete = %v", keys)
	}

	ownedEqualsLent(t, s)
	lendingContract(t, s)
}

// readCounters returns the read-side counters a store keeps, nil for a
// store that keeps none: Tiered's fast-tier hits and misses, Memory's
// operation and byte counts.
func readCounters(s Store) []uint64 {
	switch s := s.(type) {
	case *Tiered:
		return []uint64{s.HitCount(), s.MissCount()}
	case *Memory:
		c := s.Snapshot()
		return []uint64{c.Gets, c.BytesOut}
	}
	return nil
}

// ownedEqualsLent is storeContract's "one read path" clause: a store's
// owned reads (Get, GetRange) are its lent reads (GetPooled,
// GetRangePooled) plus a copy. At every range edge the contract walks they
// return equal bytes or fail alike, the owned bytes do not alias what a
// later read returns, and the store's own counters move the same.
func ownedEqualsLent(t *testing.T, s Store) {
	t.Helper()
	const key, obj = "eq/k", "0123456789"
	// counted runs read and returns how far each counter moved.
	counted := func(read func()) []uint64 {
		before := readCounters(s)
		read()
		after := readCounters(s)
		for i := range after {
			after[i] -= before[i]
		}
		return after
	}
	sameCounts := func(what string, owned, lent []uint64) {
		t.Helper()
		if fmt.Sprint(owned) != fmt.Sprint(lent) {
			t.Errorf("%s: counters moved %v for the owned read, %v for the lent one", what, owned, lent)
		}
	}

	// Whole objects, from the same starting state: a Put after a Delete
	// (which drops any cached copy), then the miss that fills and the read
	// after.
	var ownedB, lentB [2][]byte
	var ownedErr, lentErr [2]error
	if err := s.Put(key, []byte(obj)); err != nil {
		t.Fatal(err)
	}
	ownedCounts := counted(func() {
		for i := range ownedB {
			ownedB[i], ownedErr[i] = s.Get(key)
		}
	})
	if err := s.Delete(key); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, []byte(obj)); err != nil {
		t.Fatal(err)
	}
	lentCounts := counted(func() {
		for i := range lentB {
			var release func()
			if lentB[i], release, lentErr[i] = GetPooled(s, key); lentErr[i] == nil {
				lentB[i] = bytes.Clone(lentB[i])
				release()
			}
		}
	})
	sameCounts("Get", ownedCounts, lentCounts)
	for i := range ownedB {
		if ownedErr[i] != nil || lentErr[i] != nil || string(ownedB[i]) != obj || string(lentB[i]) != obj {
			t.Fatalf("read %d: Get = %q, %v; GetPooled = %q, %v", i, ownedB[i], ownedErr[i], lentB[i], lentErr[i])
		}
		for j := range ownedB[i] {
			ownedB[i][j] = '!'
		}
	}
	if b, release, err := GetPooled(s, key); err != nil || string(b) != obj {
		t.Errorf("GetPooled after writing into Get's copies = %q, %v", b, err)
	} else {
		release()
	}

	// Ranges, including the edges that clamp and the ones that fail. Range
	// reads do not change what is cached, so the pairs run back to back.
	for _, r := range []struct {
		key    string
		off, n int64
	}{
		{key, 0, 4}, {key, 5, 3}, {key, 5, -1}, {key, 9, 100}, {key, 10, 5}, {key, 0, 0},
		{key, -1, 5}, {key, 11, 5}, {"eq/nope", 0, 1},
	} {
		what := fmt.Sprintf("GetRange(%q,%d,%d)", r.key, r.off, r.n)
		var owned, lent []byte
		var ownedErr, lentErr error
		ownedCounts := counted(func() { owned, ownedErr = s.GetRange(r.key, r.off, r.n) })
		lentCounts := counted(func() {
			var release func()
			if lent, release, lentErr = GetRangePooled(s, r.key, r.off, r.n); lentErr == nil {
				lent = bytes.Clone(lent)
				release()
			}
		})
		sameCounts(what, ownedCounts, lentCounts)
		if (ownedErr == nil) != (lentErr == nil) || errors.Is(ownedErr, ErrNotFound) != errors.Is(lentErr, ErrNotFound) {
			t.Errorf("%s: owned read failed with %v, lent read with %v", what, ownedErr, lentErr)
			continue
		}
		if !bytes.Equal(owned, lent) {
			t.Errorf("%s = %q owned, %q lent", what, owned, lent)
		}
		for j := range owned {
			owned[j] = '!'
		}
		if again, release, err := GetRangePooled(s, r.key, r.off, r.n); err == nil {
			if !bytes.Equal(again, lent) {
				t.Errorf("%s: writing into the owned copy changed a later read to %q", what, again)
			}
			release()
		}
	}
	if err := s.Delete(key); err != nil {
		t.Fatal(err)
	}
}

// lendingContract is storeContract's PooledReader clause (through the
// package's GetPooled/GetRangePooled, so a Store without the extension is
// held to it too): pooled reads return the object's bytes, and bytes on
// loan stay what they were until release whatever happens to their key in
// the meantime — Deleted, Put again, and (under a cache) evicted or
// demoted to spill by reads of other keys. Memory and Tiered lend the
// slice they hold, so the key's next object must be a new one, never
// written into the old. The writer runs beside the checks so -race sees
// any store that writes into bytes it has lent.
func lendingContract(t *testing.T, s Store) {
	t.Helper()
	if _, _, err := GetPooled(s, "lend/nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("GetPooled missing: %v", err)
	}
	if _, _, err := GetRangePooled(s, "lend/nope", 0, 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("GetRangePooled missing: %v", err)
	}

	want := bytes.Repeat([]byte("0123456789"), 1000)
	if err := s.Put("lend/k", bytes.Clone(want)); err != nil {
		t.Fatal(err)
	}
	for i := range 4 {
		if err := s.Put(fmt.Sprintf("lend/o%d", i), bytes.Repeat([]byte{byte('A' + i)}, len(want))); err != nil {
			t.Fatal(err)
		}
	}
	// Under a cache the first read is the miss that fills it, the second
	// the hit; both are loans.
	type loan struct {
		b       []byte
		release func()
		want    string
	}
	var loans []loan
	for range 2 {
		b, release, err := GetPooled(s, "lend/k")
		if err != nil {
			t.Fatalf("GetPooled: %v", err)
		}
		loans = append(loans, loan{b: b, release: release, want: string(want)})
	}
	for _, r := range []struct {
		off, n int64
		want   string
	}{{5, 10, "5678901234"}, {9990, -1, "0123456789"}, {9995, 100, "56789"}, {10000, 5, ""}, {0, 0, ""}} {
		b, release, err := GetRangePooled(s, "lend/k", r.off, r.n)
		if err != nil {
			t.Fatalf("GetRangePooled(%d,%d): %v", r.off, r.n, err)
		}
		if string(b) != r.want {
			t.Errorf("GetRangePooled(%d,%d) = %q, want %q", r.off, r.n, b, r.want)
		}
		loans = append(loans, loan{b: b, release: release, want: r.want})
	}
	if _, _, err := GetRangePooled(s, "lend/k", -1, 5); err == nil {
		t.Error("GetRangePooled: negative offset accepted")
	}
	if _, _, err := GetRangePooled(s, "lend/k", 10001, 5); err == nil {
		t.Error("GetRangePooled: offset past end accepted")
	}
	intact := func(when string) bool {
		for _, l := range loans {
			if string(l.b) != l.want {
				t.Errorf("lent bytes changed %s", when)
				return false
			}
		}
		return true
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range 20 {
			s.Delete("lend/k")
			s.Put("lend/k", bytes.Repeat([]byte{byte('a' + i)}, len(want))) // same size: an in-place store would reuse the slice
			for j := range 4 {                                              // a cache evicts (and demotes) lend/k for these
				GetPooled(s, fmt.Sprintf("lend/o%d", j))
			}
			GetPooled(s, "lend/k")
		}
	}()
	for range 20 {
		if !intact("under Delete, Put and eviction of their key") {
			break
		}
	}
	wg.Wait()
	intact("after Delete, Put and eviction of their key")
	if err := s.Delete("lend/k"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("lend/k", bytes.Repeat([]byte{'z'}, len(want))); err != nil {
		t.Fatal(err)
	}
	intact("after their key was Put again")
	if b, release, err := GetPooled(s, "lend/k"); err != nil || len(b) != len(want) || b[0] != 'z' || b[len(b)-1] != 'z' {
		t.Errorf("GetPooled after re-Put: %d bytes, %v; want the new object", len(b), err)
	} else {
		release()
	}
	for _, l := range loans {
		l.release()
	}
	for _, k := range []string{"lend/k", "lend/o0", "lend/o1", "lend/o2", "lend/o3"} {
		if err := s.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := GetPooled(s, "lend/k"); !errors.Is(err, ErrNotFound) {
		t.Errorf("key readable after Delete: %v", err)
	}
}

func TestMemoryContract(t *testing.T) { storeContract(t, NewMemory()) }

func TestDiskContract(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	storeContract(t, d)
}

func TestTieredContract(t *testing.T) {
	storeContract(t, NewTiered(nil, NewMemory(), 1<<20))
	// A fast tier smaller than any object caches nothing and is still a
	// correct Store, with or without a spill level under it.
	storeContract(t, NewTiered(nil, NewMemory(), 1))
	spilled := NewTiered(nil, NewMemory(), 1)
	if _, err := spilled.EnableSpill(t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}
	defer spilled.Close()
	storeContract(t, spilled)
	// A fast tier that holds two of the lending clause's five objects: the
	// loans outlive eviction, and with a spill level demotion, of their key.
	storeContract(t, NewTiered(nil, NewMemory(), 25_000))
	storeContract(t, NewTiered(nil, &Throttled{Base: NewMemory()}, 25_000))
	demoting := NewTiered(nil, NewMemory(), 25_000)
	if _, err := demoting.EnableSpill(t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}
	defer demoting.Close()
	storeContract(t, demoting)
	if demoting.SpillStats().Demotions == 0 {
		t.Error("the lending clause never demoted an object to the spill level")
	}
}

func TestThrottledContract(t *testing.T) {
	storeContract(t, &Throttled{Base: NewMemory()})
}

// TestPutIsCreateOnly: on every store, a Put of a taken key fails with
// ErrExists and leaves the object as it was; of racing Puts of one key
// exactly one lands and is what a Get returns; and a key is free again
// once Delete has returned — its next object is what is read, also after
// a restart over the same directories, never the one before.
func TestPutIsCreateOnly(t *testing.T) {
	type opened struct {
		s      Store
		reopen func(t *testing.T) Store // nil: nothing outlives the process
	}
	const size = 64
	for _, tc := range []struct {
		name string
		open func(t *testing.T) opened
	}{
		{"Memory", func(t *testing.T) opened { return opened{s: NewMemory()} }},
		{"Disk", func(t *testing.T) opened {
			dir := t.TempDir()
			d, err := NewDisk(dir)
			if err != nil {
				t.Fatal(err)
			}
			return opened{d, func(t *testing.T) Store {
				d, err := NewDisk(dir)
				if err != nil {
					t.Fatal(err)
				}
				return d
			}}
		}},
		{"Throttled", func(t *testing.T) opened { return opened{s: &Throttled{Base: NewMemory()}} }},
		{"Tiered", func(t *testing.T) opened { return opened{s: NewTiered(nil, NewMemory(), 1<<20)} }},
		{"Tiered/spill", func(t *testing.T) opened {
			// Room for one object: reading a second demotes the first.
			slow, dir := NewMemory(), t.TempDir()
			open := func(t *testing.T) (*Tiered, int) {
				tr := NewTiered(nil, slow, size+size/2)
				rec, err := tr.EnableSpill(dir, 0)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { tr.Close() })
				return tr, rec.Entries
			}
			tr, _ := open(t)
			return opened{tr, func(t *testing.T) Store {
				tr.Close()
				again, rewarmed := open(t)
				if rewarmed == 0 {
					t.Error("the restart rewarmed nothing from the spill level")
				}
				return again
			}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.open(t)
			s := o.s
			obj := func(b byte) []byte { return bytes.Repeat([]byte{b}, size) }
			read := func(s Store, key string, want []byte, when string) {
				t.Helper()
				if got, err := s.Get(key); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("Get(%s) %s = %.8q…, %v; want %.8q…", key, when, got, err, want)
				}
			}

			if err := s.Put("k", obj('1')); err != nil {
				t.Fatal(err)
			}
			read(s, "k", obj('1'), "after its Put") // and cached, under a cache
			if err := s.Put("k", obj('2')); !errors.Is(err, ErrExists) {
				t.Fatalf("second Put: %v, want ErrExists", err)
			}
			read(s, "k", obj('1'), "after a refused Put")
			if n, err := s.Size("k"); err != nil || n != size {
				t.Fatalf("Size after a refused Put = %d, %v", n, err)
			}

			const racers = 8
			var wg sync.WaitGroup
			errs := make([]error, racers)
			for i := range racers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[i] = s.Put("race", obj(byte('a'+i)))
				}()
			}
			wg.Wait()
			winner := -1
			for i, err := range errs {
				switch {
				case err == nil && winner >= 0:
					t.Fatalf("racers %d and %d both created the key", winner, i)
				case err == nil:
					winner = i
				case !errors.Is(err, ErrExists):
					t.Fatalf("racer %d: %v, want ErrExists", i, err)
				}
			}
			if winner < 0 {
				t.Fatal("no racing Put created the key")
			}
			read(s, "race", obj(byte('a'+winner)), "after the race") // demotes k under a one-object cache

			if err := s.Delete("k"); err != nil {
				t.Fatal(err)
			}
			if err := s.Put("k", obj('3')); err != nil {
				t.Fatalf("Put after Delete: %v", err)
			}
			read(s, "k", obj('3'), "after Delete and Put")
			if o.reopen != nil {
				s = o.reopen(t)
				read(s, "k", obj('3'), "after a restart")
				read(s, "race", obj(byte('a'+winner)), "after a restart")
				if err := s.Put("k", obj('4')); !errors.Is(err, ErrExists) {
					t.Fatalf("Put after a restart: %v, want ErrExists", err)
				}
			}
		})
	}
}

// TestDiskPutLeavesNoTempFiles: Put writes through a temp file of its
// own, which it removes whether the object landed or not — also when the
// key's path is taken by a directory, which is ErrExists too.
func TestDiskPutLeavesNoTempFiles(t *testing.T) {
	root := t.TempDir()
	d, err := NewDisk(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("a/b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "a/b"} {
		if err := d.Put(k, []byte("y")); !errors.Is(err, ErrExists) {
			t.Errorf("Put(%q) over a taken path: %v, want ErrExists", k, err)
		}
	}
	if err := d.Put("a/b/c", []byte("z")); err == nil || errors.Is(err, ErrExists) {
		t.Errorf("Put under a file: %v, want a plain failure", err)
	}
	var left []string
	filepath.WalkDir(root, func(p string, de os.DirEntry, err error) error {
		if err == nil && strings.Contains(de.Name(), ".tmp") {
			left = append(left, p)
		}
		return err
	})
	if len(left) > 0 {
		t.Errorf("temp files left behind: %v", left)
	}
	if got, err := d.Get("a/b"); err != nil || string(got) != "x" {
		t.Errorf("Get(a/b) = %q, %v; want the first object", got, err)
	}
}

func TestDiskRejectsEscapingKeys(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"../evil", "..", "/abs/path", "a/../../b"} {
		if err := d.Put(k, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted", k)
		}
	}
}

func TestDiskPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	d1, _ := NewDisk(dir)
	d1.Put("a/b/c", []byte("persisted"))
	d2, _ := NewDisk(dir)
	got, err := d2.Get("a/b/c")
	if err != nil || string(got) != "persisted" {
		t.Fatalf("reopen Get = %q, %v", got, err)
	}
}

func TestMemoryQuickRoundTrip(t *testing.T) {
	m := NewMemory()
	f := func(key string, val []byte) bool {
		m.Delete("q/" + key) // quick draws some keys twice
		if err := m.Put("q/"+key, val); err != nil {
			return false
		}
		got, err := m.Get("q/" + key)
		return err == nil && bytes.Equal(got, val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMemoryKeepsThePutSlice: Memory stores the slice it is given — no
// copy on the way in (Put owns its argument) and none on a pooled read —
// while Get still hands out a copy of the caller's own.
func TestMemoryKeepsThePutSlice(t *testing.T) {
	m := NewMemory()
	src := []byte("original")
	m.Put("k", src)
	lent, release, err := m.GetPooled("k")
	if err != nil {
		t.Fatal(err)
	}
	if &lent[0] != &src[0] {
		t.Error("Put copied its input: the stored object is not the slice it was given")
	}
	release()
	got, _ := m.Get("k")
	got[0] = 'Y' // caller mutates the returned buffer
	if got2, _ := m.Get("k"); string(got2) != "original" {
		t.Error("Get returned aliased buffer")
	}
}

// slowReads reports which keys reach the slow tier when each is read
// once, in order — the outside view of what the fast tier holds.
func slowReads(t *testing.T, tr *Tiered, slow *Memory, keys ...string) (missed []string) {
	t.Helper()
	for _, k := range keys {
		before := slow.Snapshot().Gets
		if _, err := tr.Get(k); err != nil {
			t.Fatalf("Get(%s): %v", k, err)
		}
		if slow.Snapshot().Gets != before {
			missed = append(missed, k)
		}
	}
	return missed
}

func TestTieredPromotionAndEviction(t *testing.T) {
	slow := NewMemory()
	tr := NewTiered(nil, slow, 100)

	obj := func(i int) string { return fmt.Sprintf("o%d", i) }
	for i := range 5 {
		tr.Put(obj(i), bytes.Repeat([]byte{byte(i)}, 40))
	}
	if tr.FastBytes() != 0 {
		t.Fatalf("writes populated fast tier: %d bytes", tr.FastBytes())
	}
	// Read 0 and 1: both promoted (80 <= 100). Read 2: evicts LRU (0).
	// Touch 1 to refresh, read 3: eviction should now take 2, not 1.
	slowReads(t, tr, slow, obj(0), obj(1))
	if tr.FastBytes() != 80 {
		t.Fatalf("fast tier holds %d bytes, want 2 objects", tr.FastBytes())
	}
	slowReads(t, tr, slow, obj(2), obj(1), obj(3))
	if tr.FastBytes() > 100 {
		t.Errorf("fast tier over capacity: %d", tr.FastBytes())
	}
	// Now resident: 1 and 3. Probing 1, 3 hits; 0 and 2 were evicted.
	if missed := slowReads(t, tr, slow, obj(1), obj(3)); len(missed) != 0 {
		t.Errorf("recently used objects evicted: %v", missed)
	}
	if missed := slowReads(t, tr, slow, obj(0)); len(missed) != 1 {
		t.Error("LRU object 0 not evicted")
	}
	if got := tr.HitCount(); got != 3 {
		t.Errorf("HitCount = %d, want 3 (the touch and the two probes)", got)
	}
}

func TestTieredHitMissCounts(t *testing.T) {
	tr := NewTiered(nil, NewMemory(), 1000)
	tr.Put("a", []byte("data"))
	tr.Get("a") // miss + promote
	tr.Get("a") // hit
	tr.Get("a") // hit
	if h, m := tr.HitCount(), tr.MissCount(); h != 2 || m != 1 {
		t.Errorf("HitCount, MissCount = %d, %d, want 2, 1", h, m)
	}
}

func TestTieredOversizeObjectNotCached(t *testing.T) {
	tr := NewTiered(nil, NewMemory(), 10)
	tr.Put("big", make([]byte, 100))
	if _, err := tr.Get("big"); err != nil {
		t.Fatal(err)
	}
	if tr.FastBytes() != 0 {
		t.Error("oversize object cached")
	}
}

func TestTieredConcurrent(t *testing.T) {
	tr := NewTiered(nil, NewMemory(), 512)
	for i := range 20 {
		tr.Put(fmt.Sprintf("o%d", i), bytes.Repeat([]byte{byte(i)}, 64))
	}
	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				key := fmt.Sprintf("o%d", (w*7+i)%20)
				b, err := tr.Get(key)
				if err != nil || len(b) != 64 {
					t.Errorf("Get(%s) = %d bytes, %v", key, len(b), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if tr.FastBytes() > 512 {
		t.Errorf("capacity violated under concurrency: %d", tr.FastBytes())
	}
}

func TestThrottledLatency(t *testing.T) {
	tr := &Throttled{Base: NewMemory(), Latency: 20 * time.Millisecond}
	tr.Put("k", []byte("v"))
	start := time.Now()
	tr.Get("k")
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Errorf("Get took %v, want >= 20ms", d)
	}
}

func TestThrottledBandwidth(t *testing.T) {
	tr := &Throttled{Base: NewMemory(), BytesPerS: 1 << 20} // 1 MiB/s
	data := make([]byte, 64<<10)                            // 64 KiB → ~62.5ms
	start := time.Now()
	tr.Put("k", data)
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Errorf("Put took %v, want >= 50ms at 1MiB/s", d)
	}
}

// TestThrottledExtraLatency verifies the runtime slow-disk toggle: extra
// latency applies while set and disappears when cleared.
func TestThrottledExtraLatency(t *testing.T) {
	mem := NewMemory()
	if err := mem.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	th := &Throttled{Base: mem}

	start := time.Now()
	if _, err := th.Get("k"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 20*time.Millisecond {
		t.Fatalf("baseline get took %v, want fast", d)
	}

	const extra = 30 * time.Millisecond
	th.SetExtraLatency(extra)
	start = time.Now()
	if _, err := th.Get("k"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < extra {
		t.Fatalf("slow-disk window not applied: get took %v, want ≥ %v", d, extra)
	}

	th.SetExtraLatency(0)
	start = time.Now()
	if _, err := th.Get("k"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 20*time.Millisecond {
		t.Fatalf("extra latency persisted after clear: %v", d)
	}
}
