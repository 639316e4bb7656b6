package etcd

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestRegistryPutGetDelete(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
	if v := r.Put("k", []byte("v1")); v != 1 {
		t.Errorf("first Put version = %d", v)
	}
	if v := r.Put("k", []byte("v2")); v != 2 {
		t.Errorf("second Put version = %d", v)
	}
	e, err := r.Get("k")
	if err != nil || string(e.Value) != "v2" || e.Version != 2 {
		t.Errorf("Get = %+v, %v", e, err)
	}
	if !r.Delete("k") || r.Delete("k") {
		t.Error("Delete semantics broken")
	}
}

func TestRegistryList(t *testing.T) {
	r := NewRegistry()
	r.Put("cache/task1/node2", []byte("b"))
	r.Put("cache/task1/node1", []byte("a"))
	r.Put("cache/task2/node1", []byte("c"))
	got := r.List("cache/task1/")
	if len(got) != 2 {
		t.Fatalf("List = %d entries", len(got))
	}
	if got[0].Key != "cache/task1/node1" || got[1].Key != "cache/task1/node2" {
		t.Errorf("List not sorted: %v, %v", got[0].Key, got[1].Key)
	}
}

func TestServerClientRoundTrip(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Put("cfg/chunk-size", []byte("4194304")); err != nil {
		t.Fatal(err)
	}
	e, err := c.Get("cfg/chunk-size")
	if err != nil || string(e.Value) != "4194304" || e.Version != 1 {
		t.Fatalf("Get = %+v, %v", e, err)
	}
	if _, err := c.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing key over RPC: %v", err)
	}

	c.Put("cfg/a", []byte("1"))
	c.Put("cfg/b", []byte("2"))
	ents, err := c.List("cfg/")
	if err != nil || len(ents) != 3 {
		t.Fatalf("List = %d entries, %v", len(ents), err)
	}

	gone, err := c.Delete("cfg/a")
	if err != nil || !gone {
		t.Fatalf("Delete = %v, %v", gone, err)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				k := fmt.Sprintf("w%d/k%d", w, i)
				r.Put(k, []byte("v"))
				if _, err := r.Get(k); err != nil {
					t.Errorf("Get(%q): %v", k, err)
					return
				}
				r.List(fmt.Sprintf("w%d/", w))
			}
		}()
	}
	wg.Wait()
	if got := len(r.List("")); got != 8*200 {
		t.Errorf("%d keys stored, want %d", got, 8*200)
	}
}
