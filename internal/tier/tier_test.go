package tier

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// groupOfTest is the dcache key shape: "group\x00id".
func groupOfTest(key string) string {
	g, _, _ := strings.Cut(key, "\x00")
	return g
}

func val(fill byte, n int) []byte { return bytes.Repeat([]byte{fill}, n) }

// put inserts under the key's current generation, as a caller with no
// concurrent invalidation would.
func put(s *Store, key string, v []byte, prefer func(string) bool) (uint64, bool) {
	return s.Put(key, v, s.Gen(key), prefer)
}

func resident(s *Store, key string) bool {
	// Not Get: that would refresh the entry's recency.
	sh, _ := s.slot(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.items[key]
	return ok
}

// TestContract is the behaviour both users of the store — dcache's
// master/shared chunk caches and objstore.Tiered — build on. Each case
// gets a fresh store; spill cases get a spill level in a temp dir, which
// is also handed to the case so it can reopen it.
func TestContract(t *testing.T) {
	for _, tc := range []struct {
		name     string
		capacity int64
		spill    bool
		run      func(t *testing.T, s *Store, dir string)
	}{
		{"global LRU order regardless of shard", 300, false, func(t *testing.T, s *Store, _ string) {
			for _, k := range []string{"a", "b", "c"} {
				put(s, k, val(1, 100), nil)
			}
			if _, ok := s.Get("a"); !ok { // refresh a: LRU order is now b, c, a
				t.Fatal("resident value missing")
			}
			if evicted, cached := put(s, "d", val(1, 100), nil); !cached || evicted != 1 {
				t.Fatalf("Put(d): evicted=%d cached=%v, want 1 eviction", evicted, cached)
			}
			if resident(s, "b") {
				t.Error("b survived eviction but was the global LRU")
			}
			for _, k := range []string{"a", "c", "d"} {
				if !resident(s, k) {
					t.Errorf("%s evicted out of LRU order", k)
				}
			}
		}},
		{"eviction follows recency across shards", 16 * 100, false, func(t *testing.T, s *Store, _ string) {
			const n = 32
			keys := make([]string, n)
			for i := range keys {
				keys[i] = fmt.Sprintf("chunk-%04d", i)
				put(s, keys[i], val(1, 100), nil)
			}
			occupied := map[*shard]bool{}
			for i, k := range keys {
				if got := resident(s, k); got != (i >= n/2) {
					t.Errorf("%s resident=%v; exactly the older half must be evicted", k, got)
				}
				if i >= n/2 {
					sh, _ := s.slot(k)
					occupied[sh] = true
				}
			}
			if len(occupied) < 2 {
				t.Fatal("survivors all hash to one shard; test keys need respreading")
			}
		}},
		{"value larger than the whole capacity is refused", 1000, false, func(t *testing.T, s *Store, _ string) {
			put(s, "small", val(1, 100), nil)
			evicted, cached := put(s, "big", val(2, 5000), nil)
			if cached || evicted != 0 {
				t.Errorf("oversized Put: cached=%v evicted=%d, want refused with no eviction", cached, evicted)
			}
			if !resident(s, "small") || s.Bytes() != 100 {
				t.Errorf("resident value or accounting disturbed: bytes=%d", s.Bytes())
			}
		}},
		{"capacity under one value caches nothing", 1, false, func(t *testing.T, s *Store, _ string) {
			if _, cached := put(s, "k", val(1, 64), nil); cached || s.Count() != 0 {
				t.Error("value cached in a store too small for it")
			}
		}},
		{"view stays valid after its entry is evicted and demoted", 512, true, func(t *testing.T, s *Store, _ string) {
			put(s, "victim", val(0xAB, 256), nil)
			view, _ := s.Get("victim")
			for i := range 2 {
				put(s, fmt.Sprintf("filler-%d", i), val(0xCD, 256), nil)
			}
			if resident(s, "victim") {
				t.Fatal("victim never evicted")
			}
			if st := s.Stats(); st.Demotions != 1 || st.DemotedBytes != 256 {
				t.Fatalf("victim not demoted: %+v", st)
			}
			s.Remove("victim")
			if !bytes.Equal(view, val(0xAB, 256)) {
				t.Fatal("outstanding view corrupted after eviction, demotion and removal")
			}
		}},
		{"demote, pread, promote, re-demote for free", 200, true, func(t *testing.T, s *Store, _ string) {
			want := append(val(7, 50), val(8, 50)...)
			put(s, "g\x00a", want, nil)
			put(s, "g\x00b", val(1, 100), nil)
			put(s, "g\x00c", val(2, 100), nil) // evicts a → spill
			if n, ok := s.SpillSize("g\x00a"); !ok || n != 100 {
				t.Fatalf("a not spilled: size=%d ok=%v", n, ok)
			}
			b, ok := s.ReadSpill("g\x00a", 40, 20)
			if !ok || !bytes.Equal(b, want[40:60]) {
				t.Fatalf("ReadSpill = %v ok=%v", b, ok)
			}
			if _, ok := s.ReadSpill("g\x00a", 90, 20); ok {
				t.Error("range past the value's end served")
			}
			whole, ok := s.LoadSpill("g\x00a")
			if !ok || !bytes.Equal(whole, want) {
				t.Fatal("LoadSpill returned wrong bytes")
			}
			put(s, "g\x00a", whole, nil) // promote; evicts b → spill
			view, ok := s.Get("g\x00a")
			if !ok {
				t.Fatal("promoted value not RAM-resident")
			}
			s.DemoteAll() // a's spill entry stayed behind: no second write
			if s.Count() != 0 || s.Bytes() != 0 {
				t.Fatalf("DemoteAll left %d entries / %d bytes in RAM", s.Count(), s.Bytes())
			}
			if !bytes.Equal(view, want) {
				t.Fatal("view of the promoted copy corrupted by its re-demotion")
			}
			st := s.Stats()
			if !st.Enabled || st.Entries != 3 || st.Promotions != 1 || st.Hits != 2 ||
				st.Demotions != 4 || st.DemotedBytes != 300 {
				t.Fatalf("stats after the round trip: %+v", st)
			}
			if _, ok := s.LoadSpill("g\x00nope"); ok || s.Stats().Misses != 1 {
				t.Errorf("absent key: ok=%v misses=%d, want a counted miss", ok, s.Stats().Misses)
			}
			if pg := s.PerGroup()["g"]; pg.FastBytes != 0 || pg.SpillBytes != 300 {
				t.Errorf("PerGroup = %+v", pg)
			}
		}},
		{"Remove invalidates both levels and survives reopen", 100, true, func(t *testing.T, s *Store, dir string) {
			put(s, "g\x00a", val(1, 100), nil)
			put(s, "g\x00b", val(2, 100), nil) // a → spill
			put(s, "g\x00a", val(1, 100), nil) // b → spill; a in both levels
			s.Remove("g\x00a")
			if resident(s, "g\x00a") || s.Bytes() != 0 {
				t.Fatal("Remove left the RAM copy")
			}
			if _, ok := s.SpillSize("g\x00a"); ok {
				t.Fatal("Remove left the spilled copy")
			}
			s.Close()
			s2 := New(100, groupOfTest)
			rec, err := s2.EnableSpill(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if _, ok := s2.LoadSpill("g\x00a"); ok {
				t.Fatal("removed key resurrected by the rewarm")
			}
			if b, ok := s2.LoadSpill("g\x00b"); !ok || !bytes.Equal(b, val(2, 100)) {
				t.Fatal("surviving key not rewarmed")
			}
			if st := s2.Stats(); rec.Entries != 1 || st.RewarmEntries != 1 || st.RewarmBytes != 100 {
				t.Fatalf("rewarm: rec=%+v stats=%+v", rec, st)
			}
			if _, err := s2.EnableSpill(t.TempDir(), 0); err == nil {
				t.Error("second EnableSpill succeeded")
			}
		}},
		{"a fill or demotion that raced an invalidation is dropped", 0, true, func(t *testing.T, s *Store, _ string) {
			gen := s.Gen("k")
			s.Remove("k") // the origin changed after the filler read it
			if _, cached := s.Put("k", val(1, 10), gen, nil); cached || resident(s, "k") {
				t.Fatal("stale fill cached over an invalidation")
			}
			// The same for a victim evicted just before the invalidation
			// whose spill write comes after it.
			s.demote(s.spill.Load(), &entry{key: "k", val: val(1, 10)}, gen)
			if _, ok := s.SpillSize("k"); ok {
				t.Fatal("stale victim spilled over an invalidation")
			}
			if _, cached := put(s, "k", val(2, 10), nil); !cached {
				t.Fatal("fresh fill refused")
			}
		}},
		{"cold group goes first", 300, true, func(t *testing.T, s *Store, _ string) {
			asked := map[string]int{}
			cold := func(g string) bool { asked[g]++; return g == "cold" }
			// These four hash to four shards: the preference looks at shard
			// tails, and the cold entry is about to be the most recent.
			put(s, "live\x00a", val(1, 100), nil)
			put(s, "live\x00b", val(2, 100), nil)
			put(s, "cold\x00c1", val(3, 100), nil)
			s.Get("cold\x00c1") // plain LRU would now evict live\x00a
			if evicted, _ := put(s, "live\x00c", val(4, 100), cold); evicted != 1 {
				t.Fatalf("evicted %d, want 1", evicted)
			}
			if resident(s, "cold\x00c1") || !resident(s, "live\x00a") {
				t.Fatal("eviction took a live entry while a cold one was resident")
			}
			if asked["live"] != 1 || asked["cold"] != 1 { // two live tails, one cold
				t.Fatalf("one pass asked the preference %v, want once per group", asked)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(tc.capacity, groupOfTest)
			var dir string
			if tc.spill {
				dir = t.TempDir()
				if _, err := s.EnableSpill(dir, 0); err != nil {
					t.Fatal(err)
				}
				defer s.Close()
			}
			tc.run(t, s, dir)
		})
	}
}

// TestPutIfRoomNeverEvicts pins the no-churn insert: a value is cached
// while the budget has room for it and refused — evicting nothing — once
// it has not; a stale generation is refused and a resident key counts as
// cached, both without moving the byte count.
func TestPutIfRoomNeverEvicts(t *testing.T) {
	s := New(250, groupOfTest)
	if !s.PutIfRoom("g\x00a", val(1, 100), s.Gen("g\x00a")) {
		t.Fatal("refused with room left")
	}
	if !s.PutIfRoom("g\x00a", val(1, 100), s.Gen("g\x00a")) || s.Bytes() != 100 {
		t.Fatalf("resident key: bytes %d, want 100", s.Bytes())
	}
	if !s.PutIfRoom("g\x00b", val(2, 100), s.Gen("g\x00b")) {
		t.Fatal("refused with room left")
	}
	if s.PutIfRoom("g\x00c", val(3, 100), s.Gen("g\x00c")) {
		t.Fatal("cached past the budget")
	}
	if s.Count() != 2 || s.Bytes() != 200 || !resident(s, "g\x00a") || !resident(s, "g\x00b") {
		t.Fatalf("refusal moved the store: %d entries, %d bytes", s.Count(), s.Bytes())
	}
	gen := s.Gen("g\x00d")
	s.Remove("g\x00d")
	if s.PutIfRoom("g\x00d", val(4, 10), gen) || s.Bytes() != 200 {
		t.Fatalf("stale generation cached or counted: bytes %d", s.Bytes())
	}
	if !s.PutIfRoom("g\x00e", val(5, 50), s.Gen("g\x00e")) || s.Bytes() != 250 {
		t.Fatalf("exact fit refused: bytes %d", s.Bytes())
	}
}

// TestConcurrentChurn hammers every mutating entry point from many
// goroutines over a key space wide enough to hit every shard, with a
// capacity tight enough that evictions and demotions run beside hits and
// invalidations. Under -race this is the locking proof; the invariants
// catch accounting that drifts when they interleave, and a removed key
// that a late demotion or a stale fill brought back.
func TestConcurrentChurn(t *testing.T) {
	const workers, opsPer, keySpace, size = 8, 400, 64, 100
	s := New(size*8, groupOfTest) // room for 8 of 64 keys → constant eviction
	if _, err := s.EnableSpill(t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	key := func(i int) string { return fmt.Sprintf("g\x00chunk-%03d", i) }
	// Keys ≥ keySpace/2 are mutable: their value is their version, and a
	// version is only ever cached through a generation read before it.
	var versions [keySpace]struct {
		mu sync.Mutex
		v  byte
	}
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for range opsPer {
				i := rng.Intn(keySpace)
				k := key(i)
				switch op := rng.Intn(4); {
				case i >= keySpace/2 && op == 0: // overwrite: origin first, then invalidate
					versions[i].mu.Lock()
					versions[i].v++
					versions[i].mu.Unlock()
					s.Remove(k)
				case op <= 1: // read-through fill
					gen := s.Gen(k)
					versions[i].mu.Lock()
					v := versions[i].v
					versions[i].mu.Unlock()
					runtime.Gosched() // the origin read takes a while: let an overwrite in
					if op == 0 {
						s.PutIfRoom(k, val(v, size), gen)
					} else {
						s.Put(k, val(v, size), gen, nil)
					}
				case op == 2:
					if b, ok := s.Get(k); ok && len(b) != size {
						t.Errorf("Get(%s) returned %d bytes", k, len(b))
					}
				default:
					s.ReadSpill(k, 0, size)
				}
			}
		}()
	}
	wg.Wait()
	if got := s.Bytes(); got > size*8 || got != int64(s.Count())*size {
		t.Errorf("accounting drifted: used=%d with %d resident entries, capacity %d", got, s.Count(), size*8)
	}
	for i := range keySpace {
		want := val(versions[i].v, size)
		if b, ok := s.Get(key(i)); ok && !bytes.Equal(b, want) {
			t.Errorf("%q: RAM holds version %d, origin is at %d", key(i), b[0], want[0])
		}
		if b, ok := s.LoadSpill(key(i)); ok && !bytes.Equal(b, want) {
			t.Errorf("%q: spill holds version %d, origin is at %d", key(i), b[0], want[0])
		}
	}
	s.Clear()
	if s.Bytes() != 0 || s.Count() != 0 {
		t.Errorf("Clear left used=%d count=%d", s.Bytes(), s.Count())
	}
}

// TestVictimFindableWhileDemoting pins the window between an eviction
// victim leaving the RAM index and its spill write returning: a Get there
// must still hit (or the caller refetches the value from its origin — the
// bench's "second job fetched a chunk the first had loaded"), and a Remove
// there must still win. The spill write is gated by holding demoteMu, the
// lock every demotion takes before it writes.
func TestVictimFindableWhileDemoting(t *testing.T) {
	const size = 100
	// waitFor polls for an event another goroutine produces under a lock.
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	// evictGated fills a one-value store with "a", closes the gate and
	// starts a Put of "b" that evicts "a"; it returns once "a" has left
	// the index with its spill write stuck behind the gate.
	evictGated := func(t *testing.T) (s *Store, open func()) {
		s = New(size, groupOfTest)
		if _, err := s.EnableSpill(t.TempDir(), 0); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		put(s, "a", val('a', size), nil)
		s.demoteMu.Lock()
		done := make(chan struct{})
		go func() {
			defer close(done)
			put(s, "b", val('b', size), nil)
		}()
		waitFor("the eviction of a", func() bool { return !resident(s, "a") })
		if _, ok := s.SpillSize("a"); ok {
			t.Fatal("a reached the spill log through a closed gate")
		}
		return s, func() { s.demoteMu.Unlock(); <-done }
	}

	t.Run("get hits", func(t *testing.T) {
		s, open := evictGated(t)
		if b, ok := s.Get("a"); !ok || !bytes.Equal(b, val('a', size)) {
			t.Errorf("Get(a) during its demotion = %d bytes, %v; want the value", len(b), ok)
		}
		open()
		if _, ok := s.Get("a"); ok {
			t.Error("a still answers from RAM after its demotion finished")
		}
		if b, ok := s.LoadSpill("a"); !ok || !bytes.Equal(b, val('a', size)) {
			t.Errorf("LoadSpill(a) after its demotion = %d bytes, %v; want the value", len(b), ok)
		}
		if got := s.Bytes(); got != size {
			t.Errorf("used = %d, want %d (b only)", got, size)
		}
	})

	t.Run("remove wins", func(t *testing.T) {
		s, open := evictGated(t)
		gen := s.Gen("a")
		removed := make(chan struct{})
		go func() {
			defer close(removed)
			s.Remove("a") // its log removal queues behind the gate too
		}()
		waitFor("the invalidation of a", func() bool { return s.Gen("a") != gen })
		if _, ok := s.Get("a"); ok {
			t.Error("Get(a) hit after Remove(a)")
		}
		open()
		<-removed
		if _, ok := s.LoadSpill("a"); ok {
			t.Error("a removed key reached the spill log")
		}
	})
}
