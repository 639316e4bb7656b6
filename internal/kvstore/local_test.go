package kvstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"
)

// backend is the shape the DIESEL server consumes; Local and Cluster must
// behave identically through it.
type backend interface {
	Set(key string, value []byte) error
	Get(key string) ([]byte, error)
	GetContext(ctx context.Context, key string) ([]byte, error)
	MSet(pairs []KV) error
	MGetContext(ctx context.Context, keys []string) ([][]byte, error)
	Del(key string) (bool, error)
	ScanPrefix(prefix string) ([]KV, error)
	FlushAll() error
	DBSize() (uint64, error)
	Close() error
}

// backendContract runs the semantics both implementations must share.
func backendContract(t *testing.T, b backend) {
	t.Helper()

	if _, err := b.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get missing: %v", err)
	}
	if err := b.Set("k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, err := b.Get("k1")
	if err != nil || !bytes.Equal(v, []byte("v1")) {
		t.Fatalf("Get = %q, %v", v, err)
	}
	// Returned values are isolated from later mutation.
	v[0] = 'X'
	if v2, _ := b.Get("k1"); !bytes.Equal(v2, []byte("v1")) {
		t.Error("Get returned aliased storage")
	}

	var pairs []KV
	for i := range 50 {
		pairs = append(pairs, KV{Key: fmt.Sprintf("p/%03d", i), Value: []byte{byte(i)}})
	}
	if err := b.MSet(pairs); err != nil {
		t.Fatal(err)
	}
	vals, err := b.MGetContext(context.Background(), []string{"p/007", "absent", "p/049"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(vals[0], []byte{7}) || vals[1] != nil || !bytes.Equal(vals[2], []byte{49}) {
		t.Errorf("MGet = %v", vals)
	}

	// The context forms read the same data, and refuse an already-
	// cancelled context instead of doing work nobody waits for.
	if v, err := b.GetContext(context.Background(), "k1"); err != nil || !bytes.Equal(v, []byte("v1")) {
		t.Errorf("GetContext = %q, %v", v, err)
	}
	if vals, err := b.MGetContext(context.Background(), []string{"p/007", "absent"}); err != nil ||
		!bytes.Equal(vals[0], []byte{7}) || vals[1] != nil {
		t.Errorf("MGetContext = %v, %v", vals, err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.GetContext(cancelled, "k1"); !errors.Is(err, context.Canceled) {
		t.Errorf("GetContext on a cancelled context: %v", err)
	}
	if _, err := b.MGetContext(cancelled, []string{"p/007"}); !errors.Is(err, context.Canceled) {
		t.Errorf("MGetContext on a cancelled context: %v", err)
	}

	kvs, err := b.ScanPrefix("p/")
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 50 {
		t.Fatalf("scan = %d pairs", len(kvs))
	}
	if !sort.SliceIsSorted(kvs, func(i, j int) bool { return kvs[i].Key < kvs[j].Key }) {
		t.Error("scan not sorted")
	}

	n, err := b.DBSize()
	if err != nil || n != 51 {
		t.Errorf("DBSize = %d, %v", n, err)
	}
	ok, err := b.Del("k1")
	if err != nil || !ok {
		t.Fatalf("Del = %v, %v", ok, err)
	}
	if ok, _ := b.Del("k1"); ok {
		t.Error("double Del reported true")
	}
	if err := b.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if n, _ := b.DBSize(); n != 0 {
		t.Errorf("DBSize after flush = %d", n)
	}
}

func TestLocalBackendContract(t *testing.T) {
	l := NewLocal()
	backendContract(t, l)
	if l.Store() == nil {
		t.Error("Store accessor nil")
	}
}

func TestClusterBackendContract(t *testing.T) {
	c, _ := startCluster(t, 3)
	backendContract(t, c)
	if c.NodeCount() != 3 {
		t.Errorf("NodeCount = %d", c.NodeCount())
	}
}
