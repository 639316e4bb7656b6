package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"diesel/internal/tracing"
)

// ErrClientClosed is returned by Call after Close, or when the connection
// drops while a call is in flight.
var ErrClientClosed = errors.New("wire: client closed")

// ErrNotSent marks transport failures that happened before the request
// reached the wire (client already closed, write failed, connection down
// and in redial backoff). A call failing with ErrNotSent is safe to retry
// on another connection even for non-idempotent operations; the Pool uses
// this to fail over between its connections transparently.
var ErrNotSent = errors.New("wire: request not sent")

// RemoteError wraps an error string returned by the server so callers can
// distinguish transport failures from application failures.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return e.Msg }

// IsRemote reports whether err originated on the server side.
func IsRemote(err error) bool {
	var re *RemoteError
	return errors.As(err, &re)
}

// Client is a multiplexed RPC client over a single TCP connection. Many
// goroutines may Call concurrently; responses are matched to callers by
// sequence number, so slow calls do not block fast ones.
type Client struct {
	conn        net.Conn
	addr        string
	callTimeout time.Duration

	gw *groupWriter // serialises and batch-flushes request frames

	mu      sync.Mutex
	pending map[uint64]pendingCall
	closed  bool
	readErr error
	// reaper enforces callTimeout for every pending call: one timer, made
	// by the first call with a deadline and armed at reapAt, the earliest
	// deadline it knows of (0: not armed). See reap.
	reaper *time.Timer
	reapAt time.Duration

	seq atomic.Uint64

	// beforeDeliver, when set (tests only), runs in the read loop between
	// taking a call's channel out of pending and sending on it.
	beforeDeliver func()
}

// pendingCall is one request awaiting its response.
type pendingCall struct {
	ch chan *Frame
	// own: the caller keeps the response payload, so the read loop gives it
	// an allocation of its own instead of the frame's pooled buffer.
	own bool
	// deadline is when the reaper expires the call, on the clock of
	// sinceBase; 0 means never.
	deadline time.Duration
}

// callChans recycles pending-call channels. A channel goes back once it
// has delivered its response or the reaper's expiredFrame: whoever took
// the call out of pending sent on it, so it is empty and nothing else
// holds it. After the caller's own context gave up it is dropped instead:
// the read loop sends after it has let go of c.mu, so that call may still
// get a late frame, and a recycled channel would hand that frame to the
// next caller. A channel failAll closed is dropped too.
var callChans = sync.Pool{New: func() any { return make(chan *Frame, 1) }}

// expiredFrame is what the reaper sends a call whose deadline passed. It
// is never read, written or released.
var expiredFrame = new(Frame)

// clockBase anchors call deadlines to the monotonic clock.
var clockBase = time.Now()

// sinceBase is t on the clock of pendingCall.deadline.
func sinceBase(t time.Time) time.Duration { return t.Sub(clockBase) }

// Dial connects to a wire server at addr.
func Dial(addr string, opts ...Option) (*Client, error) {
	o := buildOptions(opts)
	return dialOpts(addr, &o)
}

func dialOpts(addr string, o *options) (*Client, error) {
	conn, err := o.dialConn(addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	c := &Client{
		conn:        conn,
		addr:        addr,
		callTimeout: o.callTimeout,
		gw:          newGroupWriter(conn),
		pending:     make(map[uint64]pendingCall),
	}
	go c.readLoop()
	if o.job != nil {
		// The identity is the first frame on the wire, so every request
		// that follows is attributed deterministically. A write failure
		// means the connection is already dead; the first Call reports it.
		_ = c.oneway(jobMethod, o.job.encode())
	}
	return c, nil
}

// Addr returns the address the client dialed.
func (c *Client) Addr() string { return c.addr }

// isClosed reports whether the connection is dead (explicit Close or a read
// error). A closed client never recovers; redial instead.
func (c *Client) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

func (c *Client) readLoop() {
	// Buffered reads: ReadFrame issues a ReadFull per part of a frame
	// (header, method, payload); the bufio layer turns those into one socket
	// read per batch of frames, and steps aside for a payload larger than
	// its buffer, which the socket then fills directly.
	br := bufio.NewReaderSize(c.conn, groupBufSize)
	for {
		f, err := readFrame(br, c.owns)
		if err != nil {
			c.failAll(err)
			return
		}
		if f.Kind != KindResponse && f.Kind != KindError {
			f.Release() // servers only reply; anything else is not for a caller
			continue
		}
		c.mu.Lock()
		ch := c.pending[f.Seq].ch
		delete(c.pending, f.Seq)
		c.mu.Unlock()
		if ch != nil {
			if c.beforeDeliver != nil {
				c.beforeDeliver()
			}
			ch <- f
		} else {
			// No waiter (the caller timed out, perhaps while the body was
			// being read): recycle the envelope now. A payload read for an
			// owner that has left is in no pool and is simply dropped.
			f.Release()
		}
	}
}

// owns reports whether the caller waiting for seq keeps the response
// payload. A caller that already gave up does not.
func (c *Client) owns(seq uint64, _ string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pending[seq].own
}

// failAll wakes every pending caller with a closed-channel signal after a
// read error or Close.
func (c *Client) failAll(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.readErr == nil {
		c.readErr = err
	}
	for seq, p := range c.pending {
		close(p.ch)
		delete(c.pending, seq)
	}
	c.closed = true
	if c.reaper != nil {
		c.reaper.Stop()
		c.reapAt = 0
	}
}

// arm makes sure the reaper fires by deadline, d from now. Only a call
// that is now the earliest deadline resets the timer. Called with c.mu
// held.
func (c *Client) arm(deadline, d time.Duration) {
	if c.reapAt != 0 && c.reapAt <= deadline {
		return
	}
	c.reapAt = deadline
	if c.reaper == nil {
		c.reaper = time.AfterFunc(d, c.reap)
	} else {
		c.reaper.Reset(d)
	}
}

// reap runs when the reaper's timer fires: it takes every overdue call
// out of pending, sends it expiredFrame, and re-arms at the earliest
// deadline left, if any. The send never blocks: the channel holds one
// frame and is empty, because only whoever removes a call from pending
// sends on its channel. With a constant timeout it fires about once per
// timeout per connection, however many calls it covers.
func (c *Client) reap() {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := sinceBase(time.Now())
	c.reapAt = 0
	var next time.Duration
	for seq, p := range c.pending {
		switch {
		case p.deadline == 0:
		case p.deadline <= now:
			delete(c.pending, seq)
			p.ch <- expiredFrame
		case next == 0 || p.deadline < next:
			next = p.deadline
		}
	}
	if next != 0 {
		c.arm(next, next-now)
	}
}

// Call sends a request and blocks for its response. It returns the
// response payload, a *RemoteError if the server's handler failed, or a
// transport error if the connection broke or the connection's
// CallTimeout fired.
func (c *Client) Call(method string, payload []byte) ([]byte, error) {
	return c.CallContext(context.Background(), method, payload)
}

// CallContext is Call with an explicit deadline/cancellation; the
// connection's CallTimeout, if it was dialed with one, bounds it as well,
// and whichever comes first ends the call. When either expires the call
// returns an error wrapping ctx.Err() or context.DeadlineExceeded without
// waiting for the server; the request may still execute remotely, so
// callers must only retry idempotent operations after a deadline.
//
// The returned payload is owned by the caller: it is one allocation of
// exactly the response's size, filled by the socket read, that no pool
// ever holds; only the frame envelope is recycled. Hot paths that are done
// with the payload before they return should use CallBorrowContext, which
// keeps the buffer in the pool.
func (c *Client) CallContext(ctx context.Context, method string, payload []byte) ([]byte, error) {
	return owned(c.roundTrip(ctx, method, payload, nil, true))
}

// CallLendContext is CallContext with the request payload in two pieces:
// the server sees head followed by body as one payload. body is lent, not
// copied: a chunk-sized one goes to a TCP connection from where it lies,
// in the same writev as the rest of the frame. It must stay unchanged
// during the call and is the caller's again when the call returns, however
// it ends — the request is written on the calling goroutine before the
// call waits for anything, so a call that gives up (deadline, cancel) or
// fails returns only after the write has finished or failed, and nothing
// in this package refers to body afterwards.
func (c *Client) CallLendContext(ctx context.Context, method string, head, body []byte) ([]byte, error) {
	return owned(c.roundTrip(ctx, method, head, body, true))
}

// owned detaches the payload of a response read for an owner and recycles
// the envelope.
func owned(f *Frame, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	b := f.Payload
	f.Release()
	return b, nil
}

// CallBorrowContext performs one RPC and returns the response frame
// itself, lending its pooled payload to the caller: read Payload, copy
// anything that must outlive the frame, then Release exactly once.
// Skipping Release is safe (the frame falls to the GC) but forfeits the
// buffer reuse this path exists for. Nothing in this repository's serving
// plane calls it any more — every client read hands out windows into an
// owned response — it stays for the benchmark's wire probes.
func (c *Client) CallBorrowContext(ctx context.Context, method string, payload []byte) (*Frame, error) {
	return c.roundTrip(ctx, method, payload, nil, false)
}

// roundTrip is one RPC whose request payload is payload followed by lent
// (see CallLendContext). own says who gets the response payload: the
// caller for good (see pendingCall.own), or the pool again on Release.
func (c *Client) roundTrip(ctx context.Context, method string, payload, lent []byte, own bool) (resp *Frame, err error) {
	start := time.Now()
	var sp *tracing.Span
	if tracing.Enabled() {
		sp = tracing.ChildOf(ctx, "call "+method)
	}
	defer func() {
		observeCall(method, start)
		if sp != nil {
			sp.SetError(err)
			sp.End()
			tracing.ObserveSlow(sp, "diesel_wire_call_seconds:"+method, time.Since(start))
		}
	}()
	seq := c.seq.Add(1)
	ch := callChans.Get().(chan *Frame)
	var deadline time.Duration
	if c.callTimeout > 0 {
		deadline = sinceBase(start) + c.callTimeout
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("wire: call %s: %w", method, errors.Join(ErrClientClosed, ErrNotSent))
	}
	c.pending[seq] = pendingCall{ch: ch, own: own, deadline: deadline}
	if deadline != 0 {
		c.arm(deadline, c.callTimeout)
	}
	c.mu.Unlock()

	req := newFrame()
	req.Kind, req.Seq, req.Method, req.Payload, req.lent = KindRequest, seq, method, payload, lent
	if sp != nil {
		// The span rides the frame so the server's handler spans parent
		// under this call span.
		req.TraceID, req.SpanID, req.Sampled = sp.TraceID(), sp.SpanID(), true
	}
	err = c.gw.writeFrame(req)
	req.Release() // the bytes are written or copied out; recycle the envelope
	if err != nil {
		c.mu.Lock()
		delete(c.pending, seq)
		c.mu.Unlock()
		return nil, fmt.Errorf("wire: call %s: %w", method, errors.Join(ErrNotSent, err))
	}

	select {
	case f, ok := <-ch:
		return c.finish(method, ch, f, ok)
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, seq)
		c.mu.Unlock()
		// The response (or the reaper's expiry) may have been matched
		// between the read loop's delete and ours; both run under c.mu,
		// so a non-blocking receive settles it. If it finds nothing, the
		// read loop may still hold ch and send on it later: ch is not
		// recycled (see callChans).
		select {
		case f, ok := <-ch:
			return c.finish(method, ch, f, ok)
		default:
		}
		if metricsOn() {
			mCallTimeouts.Inc()
		}
		return nil, fmt.Errorf("wire: call %s: %w", method, ctx.Err())
	}
}

// finish turns what a call's channel ch delivered into its result. A
// channel that delivered a frame has done its one job and is recycled.
func (c *Client) finish(method string, ch chan *Frame, f *Frame, ok bool) (*Frame, error) {
	if !ok {
		return nil, fmt.Errorf("wire: call %s: %w", method, ErrClientClosed)
	}
	callChans.Put(ch)
	if f == expiredFrame {
		if metricsOn() {
			mCallTimeouts.Inc()
		}
		return nil, fmt.Errorf("wire: call %s: %w", method, context.DeadlineExceeded)
	}
	if f.Kind == KindError {
		err := &RemoteError{Msg: string(f.Payload)}
		f.Release() // message copied into the error; recycle the frame
		return nil, err
	}
	return f, nil
}

// oneway sends a request without waiting for a reply.
func (c *Client) oneway(method string, payload []byte) error {
	req := newFrame()
	req.Kind, req.Seq, req.Method, req.Payload = KindOneway, c.seq.Add(1), method, payload
	err := c.gw.writeFrame(req)
	req.Release()
	return err
}

// Close tears down the connection and fails all pending calls.
func (c *Client) Close() error {
	err := c.conn.Close()
	c.failAll(ErrClientClosed)
	return err
}

// Pool is a fixed-size pool of connections to one address; Call picks one
// round-robin. Heavily concurrent components (the request executor, cache
// peers) use pools to avoid head-of-line blocking on a single socket's
// write mutex.
//
// A broken connection does not poison its slot: the pool detects closed
// clients, skips them while failing over to healthy slots, and redials
// them lazily with capped exponential backoff, so a severed connection or
// a restarted server heals without intervention.
type Pool struct {
	addr string
	o    options
	next atomic.Uint64

	slots []*poolSlot
}

// poolSlot is one connection slot with its redial state.
type poolSlot struct {
	mu       sync.Mutex
	c        *Client // nil while down
	failures int     // consecutive failed redials
	retryAt  time.Time
}

// DialPool opens n connections to addr. All n initial dials must succeed;
// failures after that are handled by lazy redial.
func DialPool(addr string, n int, opts ...Option) (*Pool, error) {
	if n < 1 {
		n = 1
	}
	p := &Pool{addr: addr, o: buildOptions(opts)}
	for range n {
		c, err := dialOpts(addr, &p.o)
		if err != nil {
			p.Close()
			return nil, err
		}
		p.slots = append(p.slots, &poolSlot{c: c})
	}
	return p, nil
}

// Addr returns the address the pool dials.
func (p *Pool) Addr() string { return p.addr }

// Call forwards to one of the pooled connections, round-robin. If the
// chosen connection is broken it fails over to the remaining slots; a call
// whose request never reached the wire (ErrNotSent) is retried on the next
// slot transparently, while an in-flight failure or deadline is returned
// to the caller, who alone knows whether the operation is idempotent.
func (p *Pool) Call(method string, payload []byte) ([]byte, error) {
	return p.CallContext(context.Background(), method, payload)
}

// CallContext is Call with an explicit deadline/cancellation, so callers
// (the epoch reader, the distributed cache) can bound a whole read rather
// than each RPC individually. The pool's connections are dialed with its
// options, so its WithCallTimeout still bounds each attempt: an attempt
// ends at the earlier of the caller's deadline and the per-call timeout.
func (p *Pool) CallContext(ctx context.Context, method string, payload []byte) ([]byte, error) {
	return owned(p.roundTrip(ctx, method, payload, nil))
}

// CallLendContext is CallContext with a lent request body; see
// Client.CallLendContext for what the caller may rely on. A request that
// never reached the wire is retried on the next slot from the same bytes.
func (p *Pool) CallLendContext(ctx context.Context, method string, head, body []byte) ([]byte, error) {
	return owned(p.roundTrip(ctx, method, head, body))
}

// roundTrip is one call with slot failover; lent as in Client.roundTrip.
// The response payload is always the caller's.
func (p *Pool) roundTrip(ctx context.Context, method string, payload, lent []byte) (*Frame, error) {
	if metricsOn() {
		mPoolCalls.Inc()
	}
	start := int(p.next.Add(1))
	var firstErr error
	for k := range len(p.slots) {
		if err := ctx.Err(); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("wire: pool %s: %w", p.addr, err)
			}
			break
		}
		s := p.slots[(start+k)%len(p.slots)]
		c, err := s.acquire(p.addr, &p.o)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		resp, err := c.roundTrip(ctx, method, payload, lent, true)
		if err == nil || IsRemote(err) {
			return resp, err
		}
		if ctx.Err() != nil && !c.isClosed() {
			// The caller gave up; the connection itself is healthy. Closing
			// it would fail other goroutines' in-flight calls for nothing.
			return nil, err
		}
		s.markBroken(c)
		if !errors.Is(err, ErrNotSent) {
			return nil, err
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("wire: pool %s: %w", p.addr, ErrNotSent)
	}
	return nil, firstErr
}

// acquire returns the slot's live client, redialing if the previous one
// broke and the backoff window has passed.
func (s *poolSlot) acquire(addr string, o *options) (*Client, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.c != nil {
		if !s.c.isClosed() {
			return s.c, nil
		}
		s.c = nil
	}
	now := time.Now()
	if now.Before(s.retryAt) {
		return nil, fmt.Errorf("wire: pool %s: connection down, redial in %v: %w",
			addr, s.retryAt.Sub(now).Round(time.Millisecond), ErrNotSent)
	}
	c, err := dialOpts(addr, o)
	if err != nil {
		s.failures++
		s.retryAt = now.Add(o.backoffFor(s.failures))
		return nil, fmt.Errorf("%w: %w", ErrNotSent, err)
	}
	if metricsOn() {
		mRedials.Inc()
	}
	s.failures = 0
	s.retryAt = time.Time{}
	s.c = c
	return c, nil
}

// markBroken closes and clears the slot's client after a call-level
// transport failure, making the next acquire redial immediately (the
// backoff only grows on failed dials).
func (s *poolSlot) markBroken(old *Client) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.c == old && old != nil {
		old.Close()
		s.c = nil
	}
}

// Close closes every pooled connection. The pool must not be used after.
func (p *Pool) Close() error {
	var first error
	for _, s := range p.slots {
		s.mu.Lock()
		if s.c != nil {
			if err := s.c.Close(); err != nil && first == nil {
				first = err
			}
			s.c = nil
		}
		// Park the slot so a racing Call cannot redial a closed pool.
		s.retryAt = time.Now().Add(24 * time.Hour)
		s.mu.Unlock()
	}
	return first
}

// Retry runs call under the one retry policy for idempotent RPCs (the
// client's reads, the metadata cluster's gets and scans): a transport
// failure — deadlines included; the operation is idempotent, so a duplicate
// execution is harmless — backs off and tries again, up to retries extra
// attempts; a *RemoteError is the server's answer and is returned at once.
// The delay before retry k is backoff doubled k times, capped at
// 100×backoff, with ±50% jitter. ctx is checked before and during every
// backoff, since retrying work nobody waits for only burns server capacity.
// onRetry runs once per retry (the callers' own counters).
//
// It returns the number of attempts made and, when they all failed, every
// attempt's error joined (plus ctx.Err() when cancellation cut a backoff
// short), for the caller to wrap with its own prefix.
func Retry[T any](ctx context.Context, retries int, backoff time.Duration, onRetry func(), call func() (T, error)) (T, int, error) {
	var errs []error
	var none T
	for attempt := 0; ; attempt++ {
		resp, err := call()
		if err == nil || IsRemote(err) {
			return resp, attempt + 1, err
		}
		errs = append(errs, err)
		if ctx.Err() != nil || attempt >= retries {
			return none, attempt + 1, errors.Join(errs...)
		}
		onRetry()
		select {
		case <-time.After(retryDelay(backoff, attempt)):
		case <-ctx.Done():
			return none, attempt + 1, errors.Join(append(errs, ctx.Err())...)
		}
	}
}

// retryDelay is the backoff before retry number attempt+1: base doubled
// per attempt, ±50% jitter, capped at 100×base.
func retryDelay(base time.Duration, attempt int) time.Duration {
	d := base << min(attempt, 20)
	if limit := 100 * base; d > limit {
		d = limit
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}
