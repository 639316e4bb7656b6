package wire

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// startGateServer serves "echo" and "hang", which answers only once
// release has been called; the test's end calls it too.
func startGateServer(t *testing.T) (addr string, release func()) {
	t.Helper()
	gate := make(chan struct{})
	release = sync.OnceFunc(func() { close(gate) })
	s := NewServer()
	s.Handle("echo", func(p []byte) ([]byte, error) { return p, nil })
	s.Handle("hang", func(p []byte) ([]byte, error) {
		<-gate
		return p, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		release()
		s.Close()
	})
	return addr, release
}

// waitPending waits until n calls are pending on c.
func waitPending(t *testing.T, c *Client, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; {
		c.mu.Lock()
		got := len(c.pending)
		c.mu.Unlock()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d calls pending, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReaperExpiresEachCallAtItsOwnDeadline: calls with different
// timeouts on one client — the second becoming the earliest deadline —
// each end within [d, d+50ms] of their start, with an error that wraps
// DeadlineExceeded and not ErrNotSent, while a call answered in time
// succeeds; the timeout counter counts the expired calls.
func TestReaperExpiresEachCallAtItsOwnDeadline(t *testing.T) {
	addr, _ := startGateServer(t)
	c, err := Dial(addr, WithCallTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before := mCallTimeouts.Load()

	timeouts := []time.Duration{300 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond}
	type result struct {
		err     error
		elapsed time.Duration
	}
	results := make([]chan result, len(timeouts))
	for i, d := range timeouts {
		// Race-free: the previous call read callTimeout before it
		// registered under c.mu, which waitPending then took.
		c.callTimeout = d
		results[i] = make(chan result, 1)
		go func() {
			start := time.Now()
			_, err := c.Call("hang", []byte{byte(i)})
			results[i] <- result{err, time.Since(start)}
		}()
		waitPending(t, c, i+1)
	}
	c.callTimeout = time.Second
	if out, err := c.Call("echo", []byte("in time")); err != nil || string(out) != "in time" {
		t.Fatalf("call answered in time: %q, %v", out, err)
	}
	for i, d := range timeouts {
		r := <-results[i]
		if !errors.Is(r.err, context.DeadlineExceeded) || errors.Is(r.err, ErrNotSent) {
			t.Errorf("call with timeout %v: %v, want DeadlineExceeded and not ErrNotSent", d, r.err)
		}
		if r.elapsed < d || r.elapsed > d+50*time.Millisecond {
			t.Errorf("call with timeout %v ended after %v, want within [%v, %v]", d, r.elapsed, d, d+50*time.Millisecond)
		}
	}
	if got := mCallTimeouts.Load() - before; got != uint64(len(timeouts)) {
		t.Errorf("timeout counter rose by %d, want %d", got, len(timeouts))
	}
}

// TestLateResponseAfterReap: a response that lands after the reaper
// expired its call finds no waiter and is released; the expired call's
// channel went back to the pool, and 1 000 calls on the same client
// afterwards each get their own payload.
func TestLateResponseAfterReap(t *testing.T) {
	addr, release := startGateServer(t)
	c, err := Dial(addr, WithCallTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call("hang", []byte("the expired call's answer")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hung call returned %v, want DeadlineExceeded", err)
	}
	release() // the late answer goes out now
	c.callTimeout = time.Second
	for i := range 1000 {
		want := pattern(byte(i), 64+i%64)
		got, err := c.Call("echo", want)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("call %d got %q, not its own payload", i, got)
		}
	}
}

// TestCallerContextBeforeCallTimeout: a caller's context that ends before
// the connection's timeout ends the call with the context's own error.
func TestCallerContextBeforeCallTimeout(t *testing.T) {
	addr, _ := startGateServer(t)
	c, err := Dial(addr, WithCallTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c.CallContext(ctx, "hang", nil); !errors.Is(err, context.DeadlineExceeded) || time.Since(start) > time.Second {
		t.Errorf("caller deadline: %v after %v, want DeadlineExceeded after ≈ 50ms", err, time.Since(start))
	}

	ctx, cancel = context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	start = time.Now()
	if _, err := c.CallContext(ctx, "hang", nil); !errors.Is(err, context.Canceled) || time.Since(start) > time.Second {
		t.Errorf("caller cancel: %v after %v, want Canceled after ≈ 50ms", err, time.Since(start))
	}
}

// TestCloseStopsTheReaper: Close fails every pending call that carries a
// deadline with ErrClientClosed, and the reaper expires nothing after.
func TestCloseStopsTheReaper(t *testing.T) {
	addr, _ := startGateServer(t)
	c, err := Dial(addr, WithCallTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	before := mCallTimeouts.Load()
	const n = 5
	errs := make(chan error, n)
	for range n {
		go func() {
			_, err := c.Call("hang", nil)
			errs <- err
		}()
	}
	waitPending(t, c, n)
	c.Close()
	for range n {
		if err := <-errs; !errors.Is(err, ErrClientClosed) {
			t.Errorf("pending call at Close returned %v, want ErrClientClosed", err)
		}
	}
	time.Sleep(200 * time.Millisecond) // past every deadline
	if got := mCallTimeouts.Load() - before; got != 0 {
		t.Errorf("timeout counter rose by %d after Close", got)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.reapAt != 0 || c.reaper.Stop() {
		t.Errorf("reaper still armed after Close (reapAt %v)", c.reapAt)
	}
}

// TestCallTimeoutAllocatesNothing: a 1 KiB call on a connection dialed
// WithCallTimeout allocates exactly what the same call without it does.
func TestCallTimeoutAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	addr, _ := startGateServer(t)
	payload := bytes.Repeat([]byte("x"), 1<<10)
	allocs := func(opts ...Option) float64 {
		c, err := Dial(addr, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		return testing.AllocsPerRun(500, func() {
			if _, err := c.Call("echo", payload); err != nil {
				t.Fatal(err)
			}
		})
	}
	plain, deadline := allocs(), allocs(WithCallTimeout(time.Second))
	if deadline != plain {
		t.Errorf("a call allocates %.2f times with a call timeout, %.2f without", deadline, plain)
	}
}

// keepOpen is a listener whose Close leaves it open, so that Server.Close
// is quick; the test closes the real one.
type keepOpen struct{ net.Listener }

func (keepOpen) Close() error { return nil }

// TestServerServesNothingAfterClose: a connection accepted while Close
// runs is either refused or closed and waited for by Close, never served
// after it returned. The test holds connsMu while the accept loop takes a
// connection, then lets go and calls Close at once, which then takes
// connsMu before the accept loop's goroutine has woken up; checking
// closed before taking connsMu lets that connection in unseen.
func TestServerServesNothingAfterClose(t *testing.T) {
	for range 10 {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		s := NewServer()
		s.Handle("echo", func(p []byte) ([]byte, error) { return p, nil })
		s.lis = keepOpen{ln}
		s.connsMu.Lock()
		go s.acceptLoop()
		c, err := Dial(ln.Addr().String(), WithCallTimeout(200*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond) // the accept loop has the connection
		s.connsMu.Unlock()
		s.Close()
		_, err = c.Call("echo", []byte("after Close"))
		c.Close()
		ln.Close()
		if err == nil {
			t.Fatal("a call issued after Close returned was answered")
		}
	}
}
