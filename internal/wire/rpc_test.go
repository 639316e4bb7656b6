package wire

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func startEchoServer(t *testing.T) (*Server, string) {
	t.Helper()
	s := NewServer()
	s.Handle("echo", func(p []byte) ([]byte, error) { return p, nil })
	s.Handle("fail", func(p []byte) ([]byte, error) { return nil, errors.New("handler says no") })
	s.Handle("slow", func(p []byte) ([]byte, error) {
		time.Sleep(50 * time.Millisecond)
		return p, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr
}

func TestRPCEcho(t *testing.T) {
	_, addr := startEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out, err := c.Call("echo", []byte("ping"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if !bytes.Equal(out, []byte("ping")) {
		t.Errorf("echo = %q", out)
	}
}

func TestRPCRemoteError(t *testing.T) {
	_, addr := startEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Call("fail", nil)
	if !IsRemote(err) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	if err.Error() != "handler says no" {
		t.Errorf("message = %q", err.Error())
	}
}

func TestRPCUnknownMethod(t *testing.T) {
	_, addr := startEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call("no-such-method", nil); !IsRemote(err) {
		t.Fatalf("want RemoteError for unknown method, got %v", err)
	}
}

func TestRPCConcurrentCalls(t *testing.T) {
	_, addr := startEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const workers = 16
	const perWorker = 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perWorker {
				msg := fmt.Sprintf("w%d-i%d", w, i)
				out, err := c.Call("echo", []byte(msg))
				if err != nil {
					errs <- err
					return
				}
				if string(out) != msg {
					errs <- fmt.Errorf("got %q want %q", out, msg)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRPCMultiplexing verifies a slow call does not block a fast one issued
// after it on the same connection.
func TestRPCMultiplexing(t *testing.T) {
	_, addr := startEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	slowDone := make(chan struct{})
	go func() {
		c.Call("slow", []byte("s"))
		close(slowDone)
	}()
	time.Sleep(5 * time.Millisecond) // let the slow request hit the wire
	start := time.Now()
	if _, err := c.Call("echo", []byte("fast")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 40*time.Millisecond {
		t.Errorf("fast call waited %v behind slow call; multiplexing broken", d)
	}
	<-slowDone
}

func TestRPCServerCloseFailsPendingCalls(t *testing.T) {
	s, addr := startEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	done := make(chan error, 1)
	go func() {
		_, err := c.Call("slow", nil)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	s.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("pending call should fail when server closes")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending call hung after server close")
	}
}

func TestRPCCallAfterClose(t *testing.T) {
	_, addr := startEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.Call("echo", nil); err == nil {
		t.Fatal("Call after Close should fail")
	}
}

func TestRPCStats(t *testing.T) {
	s, addr := startEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for range 10 {
		if _, err := c.Call("echo", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// Failures are counted per method on the process-wide registry
	// (diesel_wire_errors_total), so the assertion is a delta.
	errs0 := serveErrCounter("fail").Load()
	c.Call("fail", nil)
	if got := s.Stats.Requests.Load(); got != 11 {
		t.Errorf("Requests = %d, want 11", got)
	}
	if got := serveErrCounter("fail").Load() - errs0; got != 1 {
		t.Errorf("diesel_wire_errors_total{method=\"fail\"} moved by %d, want 1", got)
	}
}

func TestPoolRoundRobin(t *testing.T) {
	_, addr := startEchoServer(t)
	p, err := DialPool(addr, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var wg sync.WaitGroup
	for i := range 32 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			msg := fmt.Sprintf("m%d", i)
			out, err := p.Call("echo", []byte(msg))
			if err != nil || string(out) != msg {
				t.Errorf("pool call %d: %v %q", i, err, out)
			}
		}()
	}
	wg.Wait()
}

func TestOneway(t *testing.T) {
	s := NewServer()
	got := make(chan []byte, 1)
	s.Handle("notify", func(p []byte) ([]byte, error) {
		select {
		case got <- append([]byte(nil), p...):
		default:
		}
		return nil, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.oneway("notify", []byte("hi")); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		if string(p) != "hi" {
			t.Errorf("oneway payload = %q", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("oneway never delivered")
	}
}

func TestHandlerPanicDoesNotKillServer(t *testing.T) {
	s := NewServer()
	s.Handle("boom", func(p []byte) ([]byte, error) {
		var x []byte
		_ = x[5] // index out of range
		return nil, nil
	})
	s.Handle("ok", func(p []byte) ([]byte, error) { return []byte("fine"), nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call("boom", nil); !IsRemote(err) {
		t.Fatalf("panic not converted to remote error: %v", err)
	}
	// Server still alive and serving.
	out, err := c.Call("ok", nil)
	if err != nil || string(out) != "fine" {
		t.Fatalf("server dead after handler panic: %q, %v", out, err)
	}
}
