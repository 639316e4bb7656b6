package wire

import (
	"bytes"
	"context"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// goid is the calling goroutine's ID, read from its stack header
// ("goroutine 18 [running]:").
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// workers counts the goroutines that are the server's workers.
func workers() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("wire.(*Server).work("))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// waitFor polls cond until it holds, failing the test after a grace period.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("still not so after 5s: %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// dialT dials addr and closes the client at the end of the test.
func dialT(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestSequentialCallsReuseOneWorker: a request that finds a worker idle
// runs on it, so calls made one after another run on the same goroutine.
// One goroutine per request would give each call a goroutine of its own.
func TestSequentialCallsReuseOneWorker(t *testing.T) {
	s := NewServer()
	s.Handle("id", func([]byte) ([]byte, error) {
		return strconv.AppendUint(nil, goid(), 10), nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := dialT(t, addr)
	seen := map[string]bool{}
	for range 100 {
		out, err := c.Call("id", nil)
		if err != nil {
			t.Fatal(err)
		}
		seen[string(out)] = true
		// The worker counts itself idle just before it waits, after the
		// response went out.
		waitFor(t, "the worker is idle", func() bool { return s.idle.Load() >= 1 })
	}
	// A request that arrives between a worker counting itself idle and
	// its wait starts a second worker, which is idle from then on too.
	if len(seen) > 2 {
		t.Errorf("100 sequential calls ran on %d goroutines", len(seen))
	}
}

// TestBusyWorkersAreNotCapped: every request in flight has a worker, so
// handlers that each wait until all have entered all complete.
func TestBusyWorkersAreNotCapped(t *testing.T) {
	const n = 32
	s := NewServer()
	var entered atomic.Int32
	all := make(chan struct{})
	s.Handle("gather", func([]byte) ([]byte, error) {
		if entered.Add(1) == n {
			close(all)
		}
		<-all
		return []byte("ok"), nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := dialT(t, addr)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if out, err := c.CallContext(ctx, "gather", nil); err != nil || string(out) != "ok" {
				t.Errorf("gather: %q, %v (%d of %d entered)", out, err, entered.Load(), n)
			}
		}()
	}
	wg.Wait()
}

// TestIdleWorkersAreCapped: a burst of 4× maxIdleWorkers requests in
// flight at once needs as many workers; once it has passed, at most
// maxIdleWorkers of them stay.
func TestIdleWorkersAreCapped(t *testing.T) {
	const n = 4 * maxIdleWorkers
	s := NewServer()
	var entered atomic.Int32
	all := make(chan struct{})
	s.Handle("gather", func([]byte) ([]byte, error) {
		if entered.Add(1) == n {
			close(all)
		}
		<-all
		return nil, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := dialT(t, addr)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.CallContext(ctx, "gather", nil); err != nil {
				t.Errorf("gather: %v (%d of %d entered)", err, entered.Load(), n)
			}
		}()
	}
	wg.Wait()
	waitFor(t, "the burst's workers are idle or gone", func() bool { return workers() <= maxIdleWorkers })
	if idle := s.idle.Load(); idle > maxIdleWorkers || idle < 1 {
		t.Errorf("%d idle workers after the burst, want 1..%d", idle, maxIdleWorkers)
	}
	if _, err := c.Call("gather", nil); err != nil { // all is closed: returns at once
		t.Errorf("after the burst: %v", err)
	}
}

// TestHandlerPanicKeepsWorker: a handler that panics answers with an
// error, and the worker it ran on serves the next request.
func TestHandlerPanicKeepsWorker(t *testing.T) {
	s := NewServer()
	var panicked atomic.Uint64
	s.Handle("boom", func([]byte) ([]byte, error) {
		panicked.Store(goid())
		panic("boom")
	})
	s.Handle("id", func([]byte) ([]byte, error) {
		return strconv.AppendUint(nil, goid(), 10), nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := dialT(t, addr)
	if _, err := c.Call("boom", nil); !IsRemote(err) {
		t.Fatalf("a panic answered %v, want a remote error", err)
	}
	waitFor(t, "the worker is idle", func() bool { return s.idle.Load() == 1 })
	out, err := c.Call("id", nil)
	if err != nil {
		t.Fatalf("after a panic: %v", err)
	}
	if want := strconv.FormatUint(panicked.Load(), 10); string(out) != want {
		t.Errorf("the next request ran on goroutine %s, not on the one that panicked (%s)", out, want)
	}
}

// TestCloseStopsEveryWorker: once Close has returned and the handlers in
// flight have returned too, no goroutine the server started is left.
func TestCloseStopsEveryWorker(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewServer()
	release := make(chan struct{})
	entered := make(chan struct{})
	s.Handle("echo", func(p []byte) ([]byte, error) { return p, nil })
	s.Handle("hold", func([]byte) ([]byte, error) {
		close(entered)
		<-release
		return nil, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Call("echo", []byte("x")); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	held := make(chan error, 1)
	go func() {
		_, err := c.Call("hold", nil)
		held <- err
	}()
	<-entered
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-held; err == nil {
		t.Error("a call in flight across Close succeeded")
	}
	c.Close()
	waitFor(t, "the goroutine count is back to where it started", func() bool {
		return runtime.NumGoroutine() <= before
	})
}
