package objstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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

// TestTieredSpillInvalidation: Delete must remove the spilled copy, or
// the key's next object — and, after a restart, the deleted one — would
// be served stale bytes.
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
	tr.Delete("ds/a") // must invalidate the spilled copy
	if err := tr.Put("ds/a", fresh); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Get("ds/a")
	if err != nil || !bytes.Equal(got, fresh) {
		t.Fatalf("Get after Delete and Put: %q, %v", got, err)
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
// before a concurrent Delete — alone, or followed by a Put of the key's
// next object — must not cache what it read, or the deleted object is
// served from the fast tier forever.
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
		tr.Delete("k")
		if overwrite {
			tr.Put("k", []byte("new"))
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

// allocated runs f and returns the heap bytes and objects it allocated.
func allocated(f func()) (bytes, objects uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// TestTieredLendsWhatItCaches: a pooled read of a cached object is the
// cached slice itself — no copy, no allocation — a ranged one a capped
// window into it, and the miss that fills the cache lends the very slice
// it cached, so a cold read costs one object's worth of memory, not two.
func TestTieredLendsWhatItCaches(t *testing.T) {
	const size = 1 << 20
	slow := NewMemory()
	tr := NewTiered(nil, &Throttled{Base: slow}, 4*size)
	obj := bytes.Repeat([]byte("0123456789abcdef"), size/16)
	tr.Put("ds/k", bytes.Clone(obj))

	var cold []byte
	coldBytes, _ := allocated(func() { cold, _, _ = tr.GetPooled("ds/k") })
	if !bytes.Equal(cold, obj) {
		t.Fatal("cold GetPooled: wrong bytes")
	}
	if coldBytes < size || coldBytes > size+size/2 {
		t.Errorf("cold GetPooled allocated %d bytes for a %d-byte object, want one object's worth", coldBytes, size)
	}
	warm, release, err := tr.GetPooled("ds/k")
	if err != nil || &warm[0] != &cold[0] || len(warm) != size {
		t.Fatalf("warm GetPooled is not the slice the miss cached and lent (err %v)", err)
	}
	release()
	part, release, err := tr.GetRangePooled("ds/k", 100, 50)
	if err != nil || &part[0] != &cold[100] || len(part) != 50 {
		t.Fatalf("warm GetRangePooled is not a window into the cached slice (err %v)", err)
	}
	if cap(part) != len(part) {
		t.Errorf("window has cap %d beyond its len %d: an append would reach the cached bytes behind it", cap(part), len(part))
	}
	release()
	if h, m := tr.HitCount(), tr.MissCount(); h != 2 || m != 1 {
		t.Errorf("HitCount, MissCount = %d, %d after one cold and two warm pooled reads, want 2, 1", h, m)
	}

	// The counters are the process's: a background goroutine's allocation
	// can only add to a pass, so the least of three is this loop's.
	warmBytes, warmObjects := ^uint64(0), ^uint64(0)
	for range 3 {
		b, o := allocated(func() {
			for range 100 {
				_, rel, _ := tr.GetPooled("ds/k")
				rel()
				_, rel, _ = tr.GetRangePooled("ds/k", 4096, 8192)
				rel()
			}
		})
		warmBytes, warmObjects = min(warmBytes, b), min(warmObjects, o)
	}
	if warmBytes != 0 || warmObjects != 0 {
		t.Errorf("200 warm pooled reads allocated %d bytes in %d objects, want 0", warmBytes, warmObjects)
	}

	// Get and GetRange keep handing out copies of the caller's own.
	own, _ := tr.Get("ds/k")
	own[0] ^= 0xFF
	ownPart, _ := tr.GetRange("ds/k", 0, 16)
	ownPart[1] ^= 0xFF
	if !bytes.Equal(cold, obj) {
		t.Error("a write to what Get/GetRange returned reached the cached object")
	}

	// A ranged miss neither promotes nor copies: it is the slow tier's loan.
	tr.Put("ds/cold", bytes.Clone(obj))
	part, release, err = tr.GetRangePooled("ds/cold", 16, 16)
	if err != nil || string(part) != "0123456789abcdef" {
		t.Fatalf("GetRangePooled miss = %q, %v", part, err)
	}
	release()
	if tr.FastBytes() != size {
		t.Errorf("a ranged miss promoted: fast tier holds %d bytes, want %d", tr.FastBytes(), size)
	}
}

// TestTieredPooledReadsSeeWholeObjects: pooled reads beside Deletes and
// Puts of the same keys and eviction pressure from others return whole
// objects — the old one or the new one (or none, between the two), never a
// mix and never bytes a later Put rewrote. Each object carries a CRC of
// its content.
func TestTieredPooledReadsSeeWholeObjects(t *testing.T) {
	const size, keys = 8 << 10, 6
	object := func(seed uint32) []byte {
		b := make([]byte, size)
		for i := 0; i < size-4; i += 4 {
			seed = seed*1664525 + 1013904223
			binary.LittleEndian.PutUint32(b[i:], seed)
		}
		binary.LittleEndian.PutUint32(b[size-4:], crc32.ChecksumIEEE(b[:size-4]))
		return b
	}
	whole := func(b []byte) bool {
		return len(b) == size && binary.LittleEndian.Uint32(b[size-4:]) == crc32.ChecksumIEEE(b[:size-4])
	}
	for _, spill := range []bool{false, true} {
		t.Run(fmt.Sprintf("spill=%v", spill), func(t *testing.T) {
			t.Parallel()
			tr := NewTiered(nil, NewMemory(), (keys/2)*size) // half the keys fit
			if spill {
				if _, err := tr.EnableSpill(t.TempDir(), 0); err != nil {
					t.Fatal(err)
				}
				defer tr.Close()
			}
			key := func(i int) string { return fmt.Sprintf("ds/o%d", i%keys) }
			for i := range keys {
				tr.Put(key(i), object(uint32(i)))
			}
			var stop atomic.Bool
			var reads atomic.Int64
			var wg sync.WaitGroup
			for w := range 4 {
				wg.Add(1)
				go func() { // readers: every key in turn, so the fast tier keeps evicting
					defer wg.Done()
					var held [][]byte
					for i := w; !stop.Load(); i++ {
						b, release, err := tr.GetPooled(key(i))
						if errors.Is(err, ErrNotFound) {
							continue // between the writer's Delete and Put
						}
						if err != nil || !whole(b) {
							t.Errorf("GetPooled(%s): %d bytes, %v: not a whole object", key(i), len(b), err)
							return
						}
						release()
						held = append(held, b) // lent bytes stay valid: checked again below
						if len(held) == 32 {
							for _, h := range held {
								if !whole(h) {
									t.Errorf("a lent object changed after its key was overwritten or evicted")
									return
								}
							}
							held = held[:0]
						}
						part, release, err := tr.GetRangePooled(key(i+1), size-4, 4)
						if errors.Is(err, ErrNotFound) {
							continue
						}
						if err != nil || len(part) != 4 {
							t.Errorf("GetRangePooled(%s): %d bytes, %v", key(i+1), len(part), err)
							return
						}
						release()
						reads.Add(1)
					}
				}()
			}
			wg.Add(1)
			go func() { // the writer replaces objects under the readers
				defer wg.Done()
				for v := uint32(keys); !stop.Load(); v++ {
					if err := tr.Delete(key(int(v))); err != nil {
						t.Error(err)
						return
					}
					if err := tr.Put(key(int(v)), object(v)); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			time.Sleep(time.Second)
			stop.Store(true)
			wg.Wait()
			if reads.Load() == 0 {
				t.Error("no read completed")
			}
		})
	}
}
