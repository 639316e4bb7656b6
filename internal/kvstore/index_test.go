package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"diesel/internal/wire"
)

// TestIndexAgreesWithScan: after random sets, replacements, deletes and
// flushes, the hash index that Get reads and the skiplist that ScanPrefix
// walks hold the same keys with the same values.
func TestIndexAgreesWithScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	st := NewStore()
	key := func() string { return fmt.Sprintf("k%02d/%03d", rng.Intn(8), rng.Intn(200)) }
	for op := range 30000 {
		switch r := rng.Intn(100); {
		case r < 55: // set, often a replacement
			st.Set(key(), []byte(fmt.Sprintf("v%d", op)))
		case r < 95:
			st.Del(key())
		case r < 96:
			st.Flush()
		default:
			st.Get(key())
		}
	}
	keys, values := st.ScanPrefix("")
	if len(keys) != st.Len() {
		t.Fatalf("scan holds %d keys, index %d", len(keys), st.Len())
	}
	inScan := make(map[string][]byte, len(keys))
	for i, k := range keys {
		inScan[k] = values[i]
	}
	for p := range 8 {
		for n := range 200 {
			k := fmt.Sprintf("k%02d/%03d", p, n)
			v, ok := st.Get(k)
			want, wok := inScan[k]
			if ok != wok || !bytes.Equal(v, want) {
				t.Fatalf("Get(%q) = %q,%v; scan has %q,%v", k, v, ok, want, wok)
			}
			if v2, ok2 := st.lookup([]byte(k)); ok2 != ok || !bytes.Equal(v2, v) {
				t.Fatalf("lookup(%q) = %q,%v; Get %q,%v", k, v2, ok2, v, ok)
			}
		}
	}
}

// TestLookupAllocatesNothing: a key read in place from a request finds its
// value without a string made of it.
func TestLookupAllocatesNothing(t *testing.T) {
	st := NewStore()
	st.Set("f|ds|0123456789abcdef", []byte("record"))
	key := []byte("f|ds|0123456789abcdef")
	if allocs := testing.AllocsPerRun(100, func() {
		if v, ok := st.lookup(key); !ok || len(v) != 6 {
			t.Fatal("lookup missed")
		}
	}); allocs != 0 {
		t.Errorf("a lookup by []byte key: %.1f allocs, want 0", allocs)
	}
}

// mgetRequest encodes a kv.mget request for keys.
func mgetRequest(keys []string) []byte {
	e := wire.NewEncoder(64)
	e.StringSlice(keys)
	return e.Bytes()
}

// TestMGetAnswers: kv.mget answers every key in request order, found or
// not, on both sides of the answers it holds on its stack, and for a key
// asked twice.
func TestMGetAnswers(t *testing.T) {
	s := &Server{store: NewStore()}
	for i := range 100 {
		if i%3 != 0 { // every third key is missing
			s.store.Set(fmt.Sprintf("k%03d", i), []byte(fmt.Sprintf("value-%d", i)))
		}
	}
	s.store.Set("empty", nil)
	keysOf := func(n int) []string {
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("k%03d", i)
		}
		return keys
	}
	cases := map[string][]string{"dup": {"k001", "k002", "k001", "k003", "k001"}, "empty": {"empty", "k000"}}
	for _, n := range []int{0, 1, mgetOnStack, mgetOnStack + 1, 100} {
		cases[fmt.Sprint(n)] = keysOf(n)
	}
	for name, keys := range cases {
		out, err := s.mget(mgetRequest(keys))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d := wire.NewDecoder(out)
		if n := int(d.Uint32()); n != len(keys) {
			t.Fatalf("%s: %d answers for %d keys", name, n, len(keys))
		}
		for _, k := range keys {
			ok, v := d.Bool(), d.Bytes32()
			want, wok := s.store.Get(k)
			if ok != wok || !bytes.Equal(v, want) {
				t.Errorf("%s: %s answered %q,%v, want %q,%v", name, k, v, ok, want, wok)
			}
		}
		if err := d.Err(); err != nil || len(out) != 4+5*len(keys)+valueBytes(s.store, keys) {
			t.Errorf("%s: %d-byte answer: %v", name, len(out), err)
		}
	}
}

func valueBytes(st *Store, keys []string) (n int) {
	for _, k := range keys {
		v, _ := st.Get(k)
		n += len(v)
	}
	return n
}

// TestMGetRefusesAnOverstatedCount: a count no payload of this size can
// hold is an error before anything is sized by it.
func TestMGetRefusesAnOverstatedCount(t *testing.T) {
	s := &Server{store: NewStore()}
	for _, count := range []uint32{2, 1 << 20, 1<<31 - 1, 1<<32 - 1} {
		e := wire.NewEncoder(16)
		e.Uint32(count)
		e.String("k")
		p := e.Bytes()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, err := s.mget(p)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("count %d over one key: answered %d bytes", count, len(out))
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 4<<10 {
			t.Errorf("count %d: allocated %d bytes", count, n)
		}
	}
}

// BenchmarkKVNodeMGet: one warm 8-key MGet over loopback to two nodes.
// Each node reads its keys in place, and its answer is one allocation.
// The keys are as long as a file record's: longer than the 32 bytes a
// string conversion may make on the stack.
func BenchmarkKVNodeMGet(b *testing.B) {
	c, _ := startCluster(b, 2)
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("f|bench|%016x|img%06d.jpg", i, i) // a file record's key
		if err := c.Set(keys[i], bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			b.Fatal(err)
		}
	}
	mget := func() {
		vals, err := c.MGet(keys)
		if err != nil || len(vals) != len(keys) || len(vals[7]) != 64 {
			b.Fatalf("MGet: %d values, %v", len(vals), err)
		}
	}
	mget() // warm: connections, pools, the nodes' workers
	b.ReportAllocs()
	for b.Loop() {
		mget()
	}
}
