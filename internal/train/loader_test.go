package train

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// slowStore is a concurrent fetch function with per-call latency and
// call accounting.
type slowStore struct {
	latency   time.Duration
	calls     atomic.Int64
	maxActive atomic.Int64
	active    atomic.Int64
	failPath  string
}

func (s *slowStore) fetch(path string) ([]byte, error) {
	s.calls.Add(1)
	cur := s.active.Add(1)
	defer s.active.Add(-1)
	for {
		m := s.maxActive.Load()
		if cur <= m || s.maxActive.CompareAndSwap(m, cur) {
			break
		}
	}
	if s.latency > 0 {
		time.Sleep(s.latency)
	}
	if path == s.failPath {
		return nil, errors.New("injected fetch failure")
	}
	return []byte("data:" + path), nil
}

func paths(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("f%04d", i)
	}
	return out
}

func TestLoaderOrderPreserved(t *testing.T) {
	st := &slowStore{latency: time.Millisecond}
	order := paths(100)
	l := newLoader(st.fetch, order, LoaderConfig{Workers: 8, BatchSize: 7})
	defer l.Close()

	pos := 0
	batches := 0
	for {
		b, ok, err := l.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if b.Index != batches {
			t.Fatalf("batch index %d, want %d", b.Index, batches)
		}
		for j, p := range b.Paths {
			if p != order[pos] {
				t.Fatalf("position %d: path %q, want %q", pos, p, order[pos])
			}
			if string(b.Data[j]) != "data:"+p {
				t.Fatalf("position %d: wrong data %q", pos, b.Data[j])
			}
			pos++
		}
		batches++
	}
	if pos != len(order) {
		t.Fatalf("consumed %d of %d files", pos, len(order))
	}
	if st.calls.Load() != int64(len(order)) {
		t.Errorf("fetched %d times for %d files", st.calls.Load(), len(order))
	}
}

func TestLoaderActuallyParallel(t *testing.T) {
	st := &slowStore{latency: 5 * time.Millisecond}
	l := newLoader(st.fetch, paths(64), LoaderConfig{Workers: 8, BatchSize: 8})
	defer l.Close()
	start := time.Now()
	for {
		_, ok, err := l.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	elapsed := time.Since(start)
	// Serial would be 64×5ms = 320ms; 8 workers should land well under half.
	if elapsed > 160*time.Millisecond {
		t.Errorf("epoch took %v; workers not overlapping", elapsed)
	}
	if st.maxActive.Load() < 2 {
		t.Errorf("max concurrent fetches = %d; no parallelism", st.maxActive.Load())
	}
}

func TestLoaderPrefetchBounded(t *testing.T) {
	st := &slowStore{}
	l := newLoader(st.fetch, paths(200), LoaderConfig{Workers: 4, BatchSize: 4, Prefetch: 10})
	defer l.Close()
	// Without consuming, at most Prefetch fetches may start.
	time.Sleep(30 * time.Millisecond)
	if got := st.calls.Load(); got > 10 {
		t.Errorf("%d fetches before any consumption; prefetch bound is 10", got)
	}
	// Consume everything; the window must slide to completion.
	n := 0
	for {
		b, ok, err := l.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n += len(b.Paths)
	}
	if n != 200 {
		t.Fatalf("consumed %d of 200", n)
	}
}

func TestLoaderErrorEndsEpoch(t *testing.T) {
	st := &slowStore{failPath: "f0037"}
	l := newLoader(st.fetch, paths(100), LoaderConfig{Workers: 4, BatchSize: 10})
	defer l.Close()
	var lastErr error
	for {
		_, ok, err := l.Next()
		if err != nil {
			lastErr = err
			break
		}
		if !ok {
			break
		}
	}
	if lastErr == nil {
		t.Fatal("injected failure never surfaced")
	}
	// After the error the loader is closed.
	if _, _, err := l.Next(); !errors.Is(err, ErrLoaderClosed) {
		t.Errorf("Next after failure: %v", err)
	}
}

func TestLoaderCloseMidEpochNoLeak(t *testing.T) {
	st := &slowStore{latency: time.Millisecond}
	l := newLoader(st.fetch, paths(1000), LoaderConfig{Workers: 8, BatchSize: 16})
	if _, ok, err := l.Next(); !ok || err != nil {
		t.Fatal("first batch failed")
	}
	done := make(chan struct{})
	go func() {
		l.Close() // must return: no worker stuck
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung; worker leak")
	}
	if _, _, err := l.Next(); !errors.Is(err, ErrLoaderClosed) {
		t.Errorf("Next after Close: %v", err)
	}
}

func TestLoaderEmptyOrder(t *testing.T) {
	l := newLoader(func(string) ([]byte, error) { return nil, nil }, nil, LoaderConfig{})
	defer l.Close()
	if _, ok, err := l.Next(); ok || err != nil {
		t.Fatalf("empty epoch: ok=%v err=%v", ok, err)
	}
}

func TestLoaderDoubleCloseSafe(t *testing.T) {
	l := newLoader(func(string) ([]byte, error) { return []byte("x"), nil }, paths(4), LoaderConfig{})
	l.Close()
	l.Close()
}

// TestLoaderFullPipelineWithModel wires the loader to the Figure 13 model:
// a full epoch of training consuming loader batches.
func TestLoaderFullPipelineWithModel(t *testing.T) {
	ds := MakeClusters(640, 8, 4, 0.5, 5)
	order := make([]string, ds.N())
	idx := map[string]int32{}
	for i := range order {
		order[i] = fmt.Sprintf("s/%05d", i)
		idx[order[i]] = int32(i)
	}
	fetch := func(p string) ([]byte, error) { return []byte(p), nil }
	m := NewSoftmax(ds.Dim, ds.Classes)
	fs := FullShuffle{N: ds.N(), Seed: 3}
	for epoch := range 5 {
		epochOrder := make([]string, ds.N())
		for i, s := range fs.EpochOrder(epoch) {
			epochOrder[i] = order[s]
		}
		l := newLoader(fetch, epochOrder, LoaderConfig{Workers: 4, BatchSize: 32})
		for {
			b, ok, err := l.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			batch := make([]int32, len(b.Paths))
			for j, p := range b.Paths {
				batch[j] = idx[p]
			}
			m.TrainBatch(ds, batch, 0.3)
		}
		l.Close()
	}
	if acc := TopKAccuracy(m, ds, 1); acc < 0.9 {
		t.Errorf("pipeline-trained accuracy = %.3f", acc)
	}
}
