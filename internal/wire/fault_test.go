package wire

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// withRedialBackoff shrinks (or stretches) the pool's redial backoff,
// redialBackoffBase doubling to redialBackoffMax in production.
func withRedialBackoff(base, max time.Duration) Option {
	return func(o *options) { o.backoffBase, o.backoffMax = base, max }
}

// faultDialer returns a dialer whose every connection injects plan.
func faultDialer(plan FaultPlan) func(addr string) (net.Conn, error) {
	return (&FaultGate{plan: plan}).Dialer()
}

// startHungServer accepts connections and reads forever without ever
// replying — the failure mode a crashed-but-connected or wedged server
// presents. Only a call deadline can unstick a client talking to it.
func startHungServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, c)
		}
	}()
	return ln.Addr().String()
}

func TestCallDeadlineOnHungServer(t *testing.T) {
	addr := startHungServer(t)
	const timeout = 200 * time.Millisecond
	c, err := Dial(addr, WithCallTimeout(timeout))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	_, err = c.Call("echo", []byte("anyone home?"))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("call against a hung server succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	// Acceptance bound: the deadline must fire in under 2× the timeout.
	if elapsed >= 2*timeout {
		t.Fatalf("deadline took %v, want < %v", elapsed, 2*timeout)
	}
	// A deadline is an in-flight failure, not a pre-send one: retrying it
	// blindly would be unsafe for non-idempotent ops.
	if errors.Is(err, ErrNotSent) {
		t.Error("deadline error must not be marked ErrNotSent")
	}
}

func TestCallContextCancel(t *testing.T) {
	_, addr := startEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.CallContext(ctx, "slow", []byte("x"))
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled call hung")
	}
	// The connection itself is still healthy after a cancelled call.
	out, err := c.Call("echo", []byte("still here"))
	if err != nil || !bytes.Equal(out, []byte("still here")) {
		t.Fatalf("connection unusable after cancel: %q, %v", out, err)
	}
}

func TestCallDeadlineDoesNotPoisonConnection(t *testing.T) {
	_, addr := startEchoServer(t)
	c, err := Dial(addr, WithCallTimeout(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Call("slow", nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("slow call should exceed 10ms deadline, got %v", err)
	}
	// The late response for the timed-out call must be discarded, not
	// delivered to the next caller with a different seq.
	for i := range 5 {
		out, err := c.Call("echo", []byte{byte(i)})
		if err != nil || len(out) != 1 || out[0] != byte(i) {
			t.Fatalf("call %d after deadline: %q, %v", i, out, err)
		}
	}
}

// TestPoolHealsSeveredConnections severs every pooled connection at the
// socket level and verifies the pool redials lazily and keeps serving.
func TestPoolHealsSeveredConnections(t *testing.T) {
	_, addr := startEchoServer(t)

	var mu sync.Mutex
	var conns []net.Conn
	dialer := func(a string) (net.Conn, error) {
		c, err := net.Dial("tcp", a)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		conns = append(conns, c)
		mu.Unlock()
		return c, nil
	}

	p, err := DialPool(addr, 3, WithDialer(dialer), withRedialBackoff(5*time.Millisecond, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if _, err := p.Call("echo", []byte("warm")); err != nil {
		t.Fatal(err)
	}

	// Sever every connection out from under the pool.
	mu.Lock()
	for _, c := range conns {
		c.Close()
	}
	mu.Unlock()

	// The pool must heal unaided: each call either succeeds (redial) or
	// fails ErrNotSent (slot draining); within a short window all succeed.
	deadline := time.Now().Add(2 * time.Second)
	healed := false
	for time.Now().Before(deadline) {
		if out, err := p.Call("echo", []byte("again")); err == nil && bytes.Equal(out, []byte("again")) {
			healed = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !healed {
		t.Fatal("pool never healed after all connections were severed")
	}
	// And it should now serve reliably.
	for i := range 10 {
		if _, err := p.Call("echo", []byte{byte(i)}); err != nil {
			t.Fatalf("post-heal call %d: %v", i, err)
		}
	}
}

// TestPoolHealsAfterServerRestart kills the server, restarts a fresh one
// on the same address, and verifies the pool reconnects by itself.
func TestPoolHealsAfterServerRestart(t *testing.T) {
	s := NewServer()
	s.Handle("echo", func(p []byte) ([]byte, error) { return p, nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	p, err := DialPool(addr, 2, withRedialBackoff(10*time.Millisecond, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Call("echo", []byte("up")); err != nil {
		t.Fatal(err)
	}

	s.Close()
	// Everything fails while the server is down.
	if _, err := p.Call("echo", []byte("down")); err == nil {
		t.Fatal("call succeeded against a dead server")
	}

	// Restart on the same address (binds can race the TIME_WAIT close, so
	// retry briefly).
	s2 := NewServer()
	s2.Handle("echo", func(p []byte) ([]byte, error) { return p, nil })
	for i := 0; ; i++ {
		if _, err = s2.Listen(addr); err == nil {
			break
		}
		if i > 100 {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer s2.Close()

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if out, err := p.Call("echo", []byte("back")); err == nil && bytes.Equal(out, []byte("back")) {
			return // healed
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("pool never reconnected to the restarted server")
}

// TestPoolFailsOverNotSent verifies that a request that never reached the
// wire is transparently retried on another slot rather than surfaced.
func TestPoolFailsOverNotSent(t *testing.T) {
	_, addr := startEchoServer(t)
	p, err := DialPool(addr, 3, withRedialBackoff(time.Hour, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Close two of the three underlying clients directly: their slots will
	// report ErrClientClosed+ErrNotSent, and the pool must fail over to the
	// survivor no matter which slot round-robin picks first.
	p.slots[0].c.Close()
	p.slots[2].c.Close()
	for i := range 9 {
		out, err := p.Call("echo", []byte{byte(i)})
		if err != nil || len(out) != 1 || out[0] != byte(i) {
			t.Fatalf("failover call %d: %q, %v", i, out, err)
		}
	}
}

func TestFaultConnSeverFailsCall(t *testing.T) {
	_, addr := startEchoServer(t)
	c, err := Dial(addr, WithDialer(faultDialer(FaultPlan{Seed: 1, SeverProb: 1})))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Call("echo", []byte("doomed"))
	if err == nil {
		t.Fatal("call over a severed connection succeeded")
	}
	if IsRemote(err) {
		t.Fatalf("sever must surface as a transport error, got remote: %v", err)
	}
	if !errors.Is(err, ErrFaultSevered) && !errors.Is(err, ErrClientClosed) {
		t.Fatalf("unexpected sever error: %v", err)
	}
}

func TestFaultConnDropNeedsDeadline(t *testing.T) {
	_, addr := startEchoServer(t)
	// Every request is silently swallowed; only the deadline can unstick us.
	c, err := Dial(addr,
		WithDialer(faultDialer(FaultPlan{Seed: 7, DropProb: 1})),
		WithCallTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.Call("echo", []byte("lost"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded on dropped request, got %v", err)
	}
	if time.Since(start) >= 200*time.Millisecond {
		t.Fatalf("deadline on dropped request took %v", time.Since(start))
	}
}

func TestFaultConnDelayIsSurvivable(t *testing.T) {
	_, addr := startEchoServer(t)
	c, err := Dial(addr,
		WithDialer(faultDialer(FaultPlan{Seed: 3, Delay: 20 * time.Millisecond})),
		WithCallTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	out, err := c.Call("echo", []byte("slowly"))
	if err != nil || !bytes.Equal(out, []byte("slowly")) {
		t.Fatalf("delayed call: %q, %v", out, err)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Errorf("delay not applied: call took %v", time.Since(start))
	}
}

// TestFaultPlanReplays verifies the injector's decisions are a pure
// function of (seed, write sequence), the property that makes fault runs
// reproducible.
func TestFaultPlanReplays(t *testing.T) {
	run := func() []bool {
		_, addr := startEchoServer(t)
		c, err := Dial(addr,
			WithDialer(faultDialer(FaultPlan{Seed: 42, DropProb: 0.5})),
			WithCallTimeout(50*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var outcomes []bool
		for i := range 8 {
			_, err := c.Call("echo", []byte{byte(i)})
			outcomes = append(outcomes, err == nil)
		}
		return outcomes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault sequence diverged at call %d: %v vs %v", i, a, b)
		}
	}
}

// TestFaultGateWindow drives a live connection through a closed→open→
// closed fault window: calls succeed, then a delay window measurably
// slows them without redialing, then clearing the gate restores fast
// calls on the same connection.
func TestFaultGateWindow(t *testing.T) {
	_, addr := startEchoServer(t)
	var gate FaultGate
	c, err := Dial(addr, WithDialer(gate.Dialer()), WithCallTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Call("echo", []byte("before")); err != nil {
		t.Fatalf("call before window: %v", err)
	}

	const delay = 30 * time.Millisecond
	gate.Set(FaultPlan{Delay: delay})
	start := time.Now()
	if _, err := c.Call("echo", []byte("during")); err != nil {
		t.Fatalf("call during window: %v", err)
	}
	if time.Since(start) < delay {
		t.Errorf("window delay not applied on live connection: %v", time.Since(start))
	}

	gate.Clear()
	start = time.Now()
	if _, err := c.Call("echo", []byte("after")); err != nil {
		t.Fatalf("call after window: %v", err)
	}
	if time.Since(start) >= delay {
		t.Errorf("delay persisted after Clear: %v", time.Since(start))
	}
}
