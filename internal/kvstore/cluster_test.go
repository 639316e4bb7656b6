package kvstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// startCluster launches n KV nodes and a connected client.
func startCluster(t testing.TB, n int) (*Cluster, []*Server) {
	t.Helper()
	servers := make([]*Server, n)
	addrs := make([]string, n)
	for i := range n {
		s, err := NewServer("127.0.0.1:0")
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		servers[i] = s
		addrs[i] = s.Addr()
		t.Cleanup(func() { s.Close() })
	}
	c, err := DialCluster(addrs, 2)
	if err != nil {
		t.Fatalf("DialCluster: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c, servers
}

func TestClusterGetSetDel(t *testing.T) {
	c, _ := startCluster(t, 3)
	if err := c.Set("dataset/imagenet/file1", []byte("meta1")); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get("dataset/imagenet/file1")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "meta1" {
		t.Errorf("Get = %q", v)
	}
	if _, err := c.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing key: %v", err)
	}
	ok, err := c.Del("dataset/imagenet/file1")
	if err != nil || !ok {
		t.Fatalf("Del = %v %v", ok, err)
	}
	if _, err := c.Get("dataset/imagenet/file1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted key still present: %v", err)
	}
}

// TestValuesStayWhatTheyWere: a node lends a stored value to its
// connection writer without copying it, so Set, MSet and Del must replace
// or drop a stored slice, never write into it. A value fetched before any
// of them is byte-identical afterwards, through the cluster and on the
// node's store; and gets racing with sets of the same key each see one
// whole version, never a mix of two.
func TestValuesStayWhatTheyWere(t *testing.T) {
	c, servers := startCluster(t, 2)
	ctx := context.Background()
	const key = "f|ds|0123456789abcdef|img000042.jpg"
	store := servers[c.nodeFor(key)].Store()
	version := func(b byte) []byte { return bytes.Repeat([]byte{b}, 9000) }
	for i, tc := range []struct {
		name  string
		write func(v []byte) error
	}{
		{"Set", func(v []byte) error { return c.Set(key, v) }},
		{"MSet", func(v []byte) error { return c.MSet([]KV{{Key: key, Value: v}}) }},
		{"Del", func([]byte) error { _, err := c.Del(key); return err }},
	} {
		before := version(byte(2 * i))
		if err := c.Set(key, before); err != nil {
			t.Fatal(err)
		}
		got, err := c.GetContext(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		stored, _ := store.Get(key)
		if err := tc.write(version(byte(2*i + 1))); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, before) {
			t.Errorf("%s: the value fetched before it changed", tc.name)
		}
		if !bytes.Equal(stored, before) {
			t.Errorf("%s: the slice the store held before it changed", tc.name)
		}
	}

	if err := c.Set(key, version(9)); err != nil { // Del left it unset
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := c.Set(key, version(byte(10+w*100+i%100))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for range 500 {
		got, err := c.GetContext(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 9000 || !bytes.Equal(got, version(got[0])) {
			t.Fatalf("a get racing with sets read a mix of versions")
		}
	}
	close(stop)
	wg.Wait()
}

func TestClusterKeysSpreadAcrossNodes(t *testing.T) {
	c, servers := startCluster(t, 4)
	var pairs []KV
	for i := range 1000 {
		pairs = append(pairs, KV{Key: fmt.Sprintf("k%04d", i), Value: []byte{byte(i)}})
	}
	if err := c.MSet(pairs); err != nil {
		t.Fatal(err)
	}
	for i, s := range servers {
		n := s.Store().Len()
		if n == 0 {
			t.Errorf("node %d received no keys; sharding broken", i)
		}
	}
	total, err := c.DBSize()
	if err != nil {
		t.Fatal(err)
	}
	if total != 1000 {
		t.Errorf("DBSize = %d", total)
	}
}

func TestClusterMGetPreservesOrder(t *testing.T) {
	c, _ := startCluster(t, 3)
	var pairs []KV
	for i := range 100 {
		pairs = append(pairs, KV{Key: fmt.Sprintf("mk%03d", i), Value: []byte(fmt.Sprintf("val%03d", i))})
	}
	if err := c.MSet(pairs); err != nil {
		t.Fatal(err)
	}
	keys := []string{"mk007", "missing-a", "mk099", "mk000", "missing-b"}
	vals, err := c.MGetContext(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"val007", "", "val099", "val000", ""}
	for i, w := range want {
		if w == "" {
			if vals[i] != nil {
				t.Errorf("vals[%d] = %q, want nil", i, vals[i])
			}
		} else if string(vals[i]) != w {
			t.Errorf("vals[%d] = %q, want %q", i, vals[i], w)
		}
	}
}

func TestClusterScanPrefixMergesSorted(t *testing.T) {
	c, _ := startCluster(t, 4)
	var pairs []KV
	var want []string
	for i := range 200 {
		k := fmt.Sprintf("scan/f%04d", i)
		pairs = append(pairs, KV{Key: k, Value: []byte("x")})
		want = append(want, k)
	}
	pairs = append(pairs, KV{Key: "other/zzz", Value: []byte("y")})
	if err := c.MSet(pairs); err != nil {
		t.Fatal(err)
	}
	got, err := c.ScanPrefix("scan/")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scan returned %d keys, want %d", len(got), len(want))
	}
	sort.Strings(want)
	for i, kv := range got {
		if kv.Key != want[i] {
			t.Fatalf("scan[%d] = %q, want %q", i, kv.Key, want[i])
		}
		if !strings.HasPrefix(kv.Key, "scan/") {
			t.Fatalf("scan leaked key %q", kv.Key)
		}
	}
}

func TestClusterNodeFailure(t *testing.T) {
	c, servers := startCluster(t, 3)
	var pairs []KV
	for i := range 300 {
		pairs = append(pairs, KV{Key: fmt.Sprintf("f%04d", i), Value: []byte("v")})
	}
	if err := c.MSet(pairs); err != nil {
		t.Fatal(err)
	}
	servers[1].Close() // kill the middle node

	var lost, served int
	for i := range 300 {
		_, err := c.Get(fmt.Sprintf("f%04d", i))
		switch {
		case err == nil:
			served++
		case errors.Is(err, ErrNotFound):
			t.Fatalf("key f%04d vanished without node error", i)
		default:
			lost++
		}
	}
	if lost == 0 {
		t.Error("killing a node lost no keys; failure injection broken")
	}
	if served == 0 {
		t.Error("killing one node broke all keys; sharding broken")
	}
	if _, err := c.DBSize(); err == nil {
		t.Error("DBSize, which asks every node, should fail with a dead node")
	}
}

func TestClusterWipe(t *testing.T) {
	c, servers := startCluster(t, 2)
	if err := c.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for _, s := range servers {
		s.Wipe()
	}
	if _, err := c.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Errorf("wiped cluster returned: %v", err)
	}
	n, err := c.DBSize()
	if err != nil || n != 0 {
		t.Errorf("DBSize after wipe = %d, %v", n, err)
	}
}

func TestClusterConcurrentClients(t *testing.T) {
	c, _ := startCluster(t, 3)
	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 100 {
				k := fmt.Sprintf("c%d/k%d", w, i)
				if err := c.Set(k, []byte(k)); err != nil {
					t.Errorf("Set: %v", err)
					return
				}
				v, err := c.Get(k)
				if err != nil || string(v) != k {
					t.Errorf("Get(%q) = %q, %v", k, v, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestSlotStable(t *testing.T) {
	// Slot assignment must be deterministic across processes; pin a few
	// values so accidental hash changes surface.
	for _, k := range []string{"", "a", "dataset/imagenet", "chunk/0000"} {
		s1, s2 := slot(k), slot(k)
		if s1 != s2 || s1 < 0 || s1 >= NumSlots {
			t.Errorf("slot(%q) unstable or out of range: %d, %d", k, s1, s2)
		}
	}
}

// TestSlotMatchesChecksumIEEE: a key's slot decides which node holds it,
// so the allocation-free loop must route every key where
// crc32.ChecksumIEEE — what Slot used to call — routed it.
func TestSlotMatchesChecksumIEEE(t *testing.T) {
	old := func(key string) int { return int(crc32.ChecksumIEEE([]byte(key)) % NumSlots) }
	rng := rand.New(rand.NewSource(1))
	for i := range 20000 {
		b := make([]byte, i%97)
		rng.Read(b)
		key := string(b)
		if i%2 == 0 {
			key = fmt.Sprintf("f|ds%d|%016x|img%06d.jpg", i%7, rng.Uint64(), i)
		}
		if got, want := slot(key), old(key); got != want {
			t.Fatalf("slot(%q) = %d, crc32.ChecksumIEEE says %d", key, got, want)
		}
	}
	key := "f|imagenet|0123456789abcdef|n01440764_10026.JPEG" // longer than a stack temporary
	if n := testing.AllocsPerRun(200, func() { slot(key) }); n != 0 {
		t.Errorf("Slot allocates %v times a key, want 0", n)
	}
}

func TestDialClusterEmpty(t *testing.T) {
	if _, err := DialCluster(nil, 1); err == nil {
		t.Fatal("empty cluster should fail")
	}
}

func TestClusterMGetAfterNodeFailure(t *testing.T) {
	c, servers := startCluster(t, 3)
	var keys []string
	for i := range 100 {
		k := fmt.Sprintf("mg%04d", i)
		keys = append(keys, k)
		if err := c.Set(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	servers[0].Close()
	// MGet spanning a dead node must fail loudly, not silently drop keys.
	if _, err := c.MGetContext(context.Background(), keys); err == nil {
		t.Error("MGet over a dead node succeeded silently")
	}
}

func TestClusterScanAfterNodeFailure(t *testing.T) {
	c, servers := startCluster(t, 3)
	for i := range 50 {
		c.Set(fmt.Sprintf("sc%04d", i), []byte("v"))
	}
	servers[1].Close()
	if _, err := c.ScanPrefix("sc"); err == nil {
		t.Error("ScanPrefix over a dead node succeeded; readdir would be silently partial")
	}
}

func TestClusterSlotBalance(t *testing.T) {
	// Hash-slot assignment spreads realistic metadata keys evenly enough
	// that no node owns more than twice its fair share.
	const nodes = 4
	counts := make([]int, nodes)
	for i := range 4000 {
		key := fmt.Sprintf("f|imagenet|%016x|img%07d.jpg", i*2654435761, i)
		counts[slot(key)*nodes/NumSlots]++
	}
	for i, n := range counts {
		if n > 2*4000/nodes {
			t.Errorf("node %d owns %d of 4000 keys", i, n)
		}
		if n == 0 {
			t.Errorf("node %d owns nothing", i)
		}
	}
}
