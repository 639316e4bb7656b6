package spill

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func openT(t *testing.T, cfg Config) (*Log, Recovered) {
	t.Helper()
	l, rec, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l, rec
}

func payload(i, n int) []byte {
	b := make([]byte, n)
	for j := range b {
		b[j] = byte(i + j)
	}
	return b
}

func TestAddGetReadAt(t *testing.T) {
	l, rec := openT(t, Config{Dir: t.TempDir()})
	if rec.Entries != 0 || rec.dropped != 0 {
		t.Fatalf("fresh log recovered %+v", rec)
	}
	p := payload(1, 1000)
	if w, err := l.Add("k1", p); err != nil || !w {
		t.Fatalf("Add = %v, %v", w, err)
	}
	if w, err := l.Add("k1", payload(9, 5)); err != nil || w {
		t.Fatalf("duplicate Add = %v, %v; want false, nil", w, err)
	}
	got, err := l.Get("k1")
	if err != nil || !bytes.Equal(got, p) {
		t.Fatalf("Get = %d bytes, %v", len(got), err)
	}
	win, hits, err := l.ReadAt("k1", 100, 50)
	if err != nil || hits != 1 || !bytes.Equal(win, p[100:150]) {
		t.Fatalf("ReadAt = %v hits=%d err=%v", win[:4], hits, err)
	}
	if _, hits, _ = l.ReadAt("k1", 0, 10); hits != 2 {
		t.Fatalf("second ReadAt hits = %d, want 2", hits)
	}
	if _, err := l.Get("nope"); err != errNotFound {
		t.Fatalf("Get(missing) = %v, want errNotFound", err)
	}
	if _, _, err := l.ReadAt("k1", 900, 200); err == nil {
		t.Fatal("out-of-range ReadAt succeeded")
	}
	if got := l.Len(); got != 1 {
		t.Fatalf("Len = %d", got)
	}
	if got := l.Stats().LiveBytes; got != 1000 {
		t.Fatalf("LiveBytes = %d", got)
	}
}

func TestRewarmAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Config{Dir: dir})
	want := map[string][]byte{}
	for i := range 20 {
		k := fmt.Sprintf("ds\x00chunk%02d", i)
		p := payload(i, 512+i)
		want[k] = p
		if _, err := l.Add(k, p); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	l.Remove("ds\x00chunk07")
	delete(want, "ds\x00chunk07")
	// Churn one key: each round leaves a dead record behind, and only the
	// last payload may come back.
	const churn = 50
	for i := range churn {
		l.Remove("churn")
		if _, err := l.Add("churn", payload(100+i, 300)); err != nil {
			t.Fatalf("Add(churn): %v", err)
		}
	}
	want["churn"] = payload(100+churn-1, 300)
	l.Close()

	// The segments are the whole on-disk state.
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if ok, _ := filepath.Match("seg-*.spill", de.Name()); !ok {
			t.Fatalf("spill dir holds %q besides its segments", de.Name())
		}
	}

	l2, rec := openT(t, Config{Dir: dir})
	if rec.Entries != len(want) {
		t.Fatalf("rewarmed %d entries, want %d", rec.Entries, len(want))
	}
	var wantBytes int64
	for _, p := range want {
		wantBytes += int64(len(p))
	}
	if rec.Bytes != wantBytes {
		t.Fatalf("rewarmed %d bytes, want %d", rec.Bytes, wantBytes)
	}
	for k, p := range want {
		got, err := l2.Get(k)
		if err != nil || !bytes.Equal(got, p) {
			t.Fatalf("Get(%q) after reopen: %v", k, err)
		}
	}
	if _, err := l2.Get("ds\x00chunk07"); err != errNotFound {
		t.Fatalf("removed key resurrected: %v", err)
	}
	// New adds after reopen land in a fresh segment and survive another
	// reopen.
	if _, err := l2.Add("late", payload(99, 64)); err != nil {
		t.Fatalf("Add after reopen: %v", err)
	}
	l2.Close()
	l3, rec3 := openT(t, Config{Dir: dir})
	if rec3.Entries != len(want)+1 {
		t.Fatalf("second rewarm %d entries, want %d", rec3.Entries, len(want)+1)
	}
	if got, err := l3.Get("late"); err != nil || !bytes.Equal(got, payload(99, 64)) {
		t.Fatalf("Get(late): %v", err)
	}
}

func TestTornSegmentTail(t *testing.T) {
	torn := header(0, "k5", &entry{length: 256, crc: 7})
	for name, tail := range map[string][]byte{
		"half a header":          torn[:len(torn)/2],
		"payload, no header yet": append(make([]byte, len(torn)), payload(5, 256)...),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			l, _ := openT(t, Config{Dir: dir})
			for i := range 5 {
				if _, err := l.Add(fmt.Sprintf("k%d", i), payload(i, 256)); err != nil {
					t.Fatalf("Add: %v", err)
				}
			}
			l.Close()

			// Simulate a crash mid-append at the end of the active segment.
			f, err := os.OpenFile(filepath.Join(dir, "seg-00000001.spill"), os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.Write(tail)
			f.Close()

			l2, rec := openT(t, Config{Dir: dir})
			if rec.dropped != 1 || rec.Entries != 5 {
				t.Fatalf("rewarmed %d entries and dropped %d, want 5 and 1", rec.Entries, rec.dropped)
			}
			for i := range 5 {
				if got, err := l2.Get(fmt.Sprintf("k%d", i)); err != nil || !bytes.Equal(got, payload(i, 256)) {
					t.Fatalf("Get(k%d) = %v", i, err)
				}
			}
			// Later records go to a fresh segment, past the torn one.
			if _, err := l2.Add("k5", payload(5, 256)); err != nil {
				t.Fatalf("Add after reopen: %v", err)
			}
			l2.Close()
			_, rec3 := openT(t, Config{Dir: dir})
			if rec3.Entries != 6 {
				t.Fatalf("second reopen rewarmed %d entries, want 6", rec3.Entries)
			}
		})
	}
}

// A segment's records live only in the segment: one cut short drops what
// it cut, counted, and one that is gone takes its records with it.
func TestMissingSegmentDropsEntries(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments so entries spread across files.
	l, _ := openT(t, Config{Dir: dir, segmentBytes: 600})
	for i := range 6 {
		if _, err := l.Add(fmt.Sprintf("k%d", i), payload(i, 500)); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if l.Stats().Segments < 3 {
		t.Fatalf("want >=3 segments, got %d", l.Stats().Segments)
	}
	l.Close()
	seg1 := filepath.Join(dir, "seg-00000001.spill")
	if err := os.Truncate(seg1, 300); err != nil {
		t.Fatal(err)
	}
	l2, rec := openT(t, Config{Dir: dir, segmentBytes: 600})
	if rec.dropped == 0 {
		t.Fatal("short segment dropped no entries")
	}
	if rec.Entries+rec.dropped != 6 {
		t.Fatalf("entries %d + dropped %d != 6", rec.Entries, rec.dropped)
	}
	if _, err := l2.Get("k0"); err != errNotFound {
		t.Fatalf("entry of short segment resurfaced: %v", err)
	}
	if _, err := os.Stat(seg1); !os.IsNotExist(err) {
		t.Fatalf("segment without a live record kept: %v", err)
	}
	l2.Close()

	if err := os.Remove(filepath.Join(dir, "seg-00000002.spill")); err != nil {
		t.Fatal(err)
	}
	l3, rec3 := openT(t, Config{Dir: dir, segmentBytes: 600})
	if rec3.Entries != 4 || has(l3, "k1") {
		t.Fatalf("after losing k1's segment: %d entries, k1 present %v", rec3.Entries, has(l3, "k1"))
	}
}

func TestCorruptPayloadDropped(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Config{Dir: dir})
	if _, err := l.Add("k", payload(3, 512)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Flip a byte inside the payload on disk.
	seg := filepath.Join(dir, "seg-00000001.spill")
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[100] ^= 0xff
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rec := openT(t, Config{Dir: dir})
	if rec.Entries != 1 {
		t.Fatalf("rewarmed %d entries", rec.Entries)
	}
	if _, err := l2.Get("k"); err != errCorrupt {
		t.Fatalf("Get of corrupted payload = %v, want errCorrupt", err)
	}
	if has(l2, "k") {
		t.Fatal("corrupt entry not dropped")
	}
}

func has(l *Log, key string) bool {
	_, ok := l.Size(key)
	return ok
}

// A Remove whose dead-flag write fails retires the record's segment, so
// the key cannot come back at the next Open; the log's other keys either
// read their own bytes or are gone with that segment.
func TestFailedRemoveDoesNotResurrect(t *testing.T) {
	for _, victim := range []string{"k1", "k4"} { // a sealed segment, the active one
		t.Run(victim, func(t *testing.T) {
			dir := t.TempDir()
			l, _ := openT(t, Config{Dir: dir, segmentBytes: 600})
			want := map[string][]byte{}
			for i := range 6 { // three records a segment
				k := fmt.Sprintf("k%d", i)
				want[k] = payload(i, 150)
				if _, err := l.Add(k, want[k]); err != nil {
					t.Fatalf("Add: %v", err)
				}
			}
			l.mu.Lock()
			seg := l.segs[l.entries[victim].seg]
			var survivors []string
			for k, e := range l.entries {
				if e.seg != seg.id {
					survivors = append(survivors, k)
				}
			}
			rw := seg.f
			ro, err := os.Open(l.segPath(seg.id))
			if err != nil {
				l.mu.Unlock()
				t.Fatal(err)
			}
			seg.f = ro
			l.mu.Unlock()
			t.Cleanup(func() { rw.Close() })

			if !l.Remove(victim) {
				t.Fatalf("Remove(%s) found nothing", victim)
			}
			delete(want, victim)
			// Small enough to fit the retired segment, were it still active.
			want["late"] = payload(9, 20)
			survivors = append(survivors, "late")
			if _, err := l.Add("late", want["late"]); err != nil {
				t.Fatalf("Add after a failed Remove: %v", err)
			}
			l.Close()

			l2, _ := openT(t, Config{Dir: dir, segmentBytes: 600})
			if has(l2, victim) {
				t.Fatalf("removed key %s came back at reopen", victim)
			}
			for k, p := range want {
				if got, err := l2.Get(k); err != errNotFound && (err != nil || !bytes.Equal(got, p)) {
					t.Fatalf("Get(%s) = %v", k, err)
				}
			}
			for _, k := range survivors {
				if !has(l2, k) {
					t.Fatalf("%s, outside the retired segment, lost", k)
				}
			}
		})
	}
}

func TestCapacityRetiresOldestSegments(t *testing.T) {
	l, _ := openT(t, Config{
		Dir:           t.TempDir(),
		CapacityBytes: 4000,
		segmentBytes:  1000,
	})
	for i := range 10 {
		if _, err := l.Add(fmt.Sprintf("k%d", i), payload(i, 900)); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	st := l.Stats()
	if st.DiskBytes > 4000+900 {
		t.Fatalf("disk bytes %d way over capacity", st.DiskBytes)
	}
	if st.DroppedEntries == 0 || st.droppedBytes != 900*st.DroppedEntries {
		t.Fatalf("retirement reported %d entries, %d bytes", st.DroppedEntries, st.droppedBytes)
	}
	// Oldest keys are gone, newest still present.
	if has(l, "k0") {
		t.Fatal("k0 survived retirement")
	}
	if !has(l, "k9") {
		t.Fatal("k9 retired")
	}
}

// Adds, reads and removes of overlapping keys from many goroutines; what
// the log holds when they stop is exactly what a reopen rebuilds.
func TestConcurrentAddRead(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Config{Dir: dir, segmentBytes: 4096})
	const keys = 64
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				k := fmt.Sprintf("k%d", (g*31+i)%keys)
				switch i % 4 {
				case 0:
					l.Add(k, payload(g, 300))
				case 1:
					l.Get(k)
				case 2:
					l.ReadAt(k, 10, 20)
				default:
					l.Remove(k)
				}
			}
		}()
	}
	wg.Wait()
	if l.Len() == 0 {
		t.Fatal("nothing stored")
	}
	held := map[string][]byte{}
	for k := range keys {
		key := fmt.Sprintf("k%d", k)
		if p, err := l.Get(key); err == nil {
			held[key] = p
		}
	}
	l.Close()
	l2, rec := openT(t, Config{Dir: dir, segmentBytes: 4096})
	if rec.Entries != len(held) {
		t.Fatalf("reopen rebuilt %d entries, the log held %d", rec.Entries, len(held))
	}
	for k, p := range held {
		if got, err := l2.Get(k); err != nil || !bytes.Equal(got, p) {
			t.Fatalf("Get(%s) after reopen: %v", k, err)
		}
	}
}

// Adds of one key that race each other all write a record; the losers
// must mark theirs dead, or the key outlives its Remove at the next Open.
func TestRacingAddsOutliveNoRemove(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Config{Dir: dir})
	for round := range 100 {
		k := fmt.Sprintf("k%d", round)
		var start, wg sync.WaitGroup
		start.Add(1)
		for g := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start.Wait()
				l.Add(k, payload(g, 64<<10))
			}()
		}
		start.Done()
		wg.Wait()
		if !l.Remove(k) {
			t.Fatalf("round %d: no Add won", round)
		}
	}
	l.Close()
	if _, rec := openT(t, Config{Dir: dir}); rec.Entries != 0 {
		t.Fatalf("%d removed keys came back at reopen", rec.Entries)
	}
}

// churnLog fills dir with adds and removes spread over five small
// segments, closes it, and returns the last payload of every live key,
// the keys whose last operation was a Remove, and the number of adds.
func churnLog(tb testing.TB, dir string) (live map[string][]byte, removed []string, adds int) {
	l, _, err := Open(Config{Dir: dir, segmentBytes: 600})
	if err != nil {
		tb.Fatalf("Open: %v", err)
	}
	defer l.Close()
	live = map[string][]byte{}
	add := func(k string, p []byte) {
		if w, err := l.Add(k, p); err != nil || !w {
			tb.Fatalf("Add(%s) = %v, %v", k, w, err)
		}
		live[k] = p
		adds++
	}
	for i := range 10 {
		add(fmt.Sprintf("k%d", i), payload(i, 120+10*i))
	}
	for _, k := range []string{"k2", "k5", "k7"} {
		l.Remove(k)
		delete(live, k)
	}
	add("k2", payload(42, 150))
	if n := l.Stats().Segments; n < 3 {
		tb.Fatalf("churn spread over %d segments, want >= 3", n)
	}
	return live, []string{"k5", "k7"}, adds
}

// FuzzSpillReplay cuts the segment files short and flips bits in them
// after a churn of adds and removes, then reopens the log: it must not
// panic, serve a key bytes it was not given, or bring back a removed key.
// cut and each two bytes of flips address the segments laid end to end
// (a cut past the end cuts nothing); at most four bits flip, so every
// flipped header or payload of this size fails its CRC32-C.
func FuzzSpillReplay(f *testing.F) {
	f.Add(uint16(0xffff), []byte{})
	f.Add(uint16(300), []byte{})
	f.Add(uint16(0xffff), []byte{0x28, 0x00})
	f.Add(uint16(1000), []byte{0x10, 0x0a, 0x44, 0x06, 0x00, 0x20})
	f.Fuzz(func(t *testing.T, cut uint16, flips []byte) {
		dir := t.TempDir()
		live, removed, adds := churnLog(t, dir)
		names, err := filepath.Glob(filepath.Join(dir, "seg-*.spill"))
		if err != nil {
			t.Fatal(err)
		}
		var files [][]byte
		total := 0
		for _, name := range names {
			b, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, b)
			total += len(b)
		}
		at := func(pos int) (file, off int) {
			for i, b := range files {
				if pos < len(b) {
					return i, pos
				}
				pos -= len(b)
			}
			return -1, 0
		}
		for i := 0; i+1 < len(flips) && i < 8; i += 2 {
			bit := int(binary.LittleEndian.Uint16(flips[i:])) % (total * 8)
			fi, off := at(bit / 8)
			files[fi][off] ^= 1 << (bit % 8)
		}
		if fi, off := at(int(cut)); fi >= 0 {
			files[fi] = files[fi][:off]
		}
		for i, name := range names {
			if err := os.WriteFile(name, files[i], 0o644); err != nil {
				t.Fatal(err)
			}
		}

		l, _, err := Open(Config{Dir: dir, segmentBytes: 600})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer l.Close()
		if n := l.Len(); n > adds {
			t.Fatalf("Len %d after %d adds", n, adds)
		}
		for k, p := range live {
			if got, err := l.Get(k); err == nil && !bytes.Equal(got, p) {
				t.Fatalf("Get(%s) served bytes it was not given", k)
			}
		}
		for _, k := range removed {
			if has(l, k) {
				t.Fatalf("removed key %s came back", k)
			}
		}
	})
}
