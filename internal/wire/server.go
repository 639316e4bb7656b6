package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"diesel/internal/tracing"
)

// Handler processes one request payload and returns the response payload.
// Handlers run concurrently; implementations must be safe for concurrent
// use. The returned slice is lent to the server until the response is
// written: it goes to the wire from where it lies, so it must stay
// unchanged until then — return a fresh slice or read-only bytes (a cached
// chunk, a stored object). A handler whose response bytes must be handed
// back afterwards (a pooled read buffer) is a ReplyHandler.
//
// The request payload aliases a pooled frame buffer that is recycled as
// soon as the response is written: handlers must not retain payload (or
// sub-slices of it, including strings aliased via Decoder.Bytes32) past
// return — copy anything that outlives the call — unless they were
// registered with HandleOwned. Returning a response that aliases the
// payload is fine; the frame recycles only after the response reaches the
// connection's writer.
type Handler func(payload []byte) ([]byte, error)

// Reply is the response a handler builds: Head, a few bytes the handler
// encodes (a length prefix, a flag), followed on the wire by the body it
// lends. The client sees the two as one payload.
type Reply struct {
	// Head is encoded in place; its first bytes cost no allocation.
	Head Encoder

	body    []byte
	release func()
}

// Lend makes b the response body without copying it: b goes to the wire
// from where it lies and must stay unchanged until release runs. release
// (nil for bytes nobody needs back) runs exactly once, after the response
// has been written or, when there is nothing to write — the handler
// failed or panicked after lending, the write failed, the request was a
// oneway — as soon as that is known.
func (r *Reply) Lend(b []byte, release func()) {
	r.done()
	r.body, r.release = b, release
}

// done hands the lent body back.
func (r *Reply) done() {
	if r.release != nil {
		r.release()
	}
	r.body, r.release = nil, nil
}

// ReplyHandler is the one shape the server stores: it answers into r and
// returns an error for an error response. Handle and HandleOwned adapt the
// slice-returning form to it.
//
// The context carries the rehydrated trace span when the request frame
// had a sampled trace block, so everything the handler calls through it
// lands in the caller's cross-process span tree, and the job identity the
// connection announced. It is not cancelled when the client disconnects
// (the protocol has no cancel frames).
type ReplyHandler func(ctx context.Context, payload []byte, r *Reply) error

// Server is a multiplexed RPC server: many in-flight requests per
// connection, responses matched by sequence number. One Server instance
// backs one listening socket.
//
// Requests run on the server's workers. A connection hands each request
// to a worker that is idle, and starts a new one only when none is, so
// every request in flight has a worker of its own and none waits for one.
// A worker that has served its request waits for the next, keeping the
// stack the handlers grew; up to maxIdleWorkers wait, and the rest exit.
// Close stops the idle ones, and the busy ones once their handler returns.
type Server struct {
	mu       sync.RWMutex
	handlers map[string]handlerEntry

	lis      net.Listener
	conns    sync.WaitGroup
	closed   atomic.Bool
	connsMu  sync.Mutex
	connsSet map[net.Conn]struct{}

	// handoff is unbuffered, so a send completes only into an idle worker.
	// Only connection readers send on it; Close closes it once they have
	// all returned, and every worker exits.
	handoff chan request
	idle    atomic.Int32 // workers waiting on handoff, or about to

	// Stats counts served requests; experiments read it to report QPS.
	Stats ServerStats
}

// handlerEntry is one registered method. keeps: the handler keeps its
// request payload (HandleOwned), so the connection's reader gives each
// request of this method an allocation of its own.
type handlerEntry struct {
	fn    ReplyHandler
	keeps bool
}

// ServerStats holds monotonically increasing counters, safe to read while
// the server runs.
type ServerStats struct {
	Requests atomic.Uint64
	BytesOut atomic.Uint64
}

// NewServer returns a server with no registered methods.
func NewServer() *Server {
	return &Server{
		handlers: make(map[string]handlerEntry),
		connsSet: make(map[net.Conn]struct{}),
		handoff:  make(chan request),
	}
}

// Handle registers fn for the given method name, replacing any previous
// registration. Registration after Serve has started is allowed.
func (s *Server) Handle(method string, fn Handler) {
	s.handle(method, lendResult(fn), false)
}

// HandleOwned registers a handler that keeps its request: every payload it
// is called with is one allocation of exactly the payload's size that the
// socket read filled and no pool ever sees, and it (with any sub-slice) is
// the handler's for good — for a request whose bytes outlive the call,
// such as a chunk on its way into a store, which would otherwise be read
// into a pooled buffer and copied out of it.
func (s *Server) HandleOwned(method string, fn Handler) {
	s.handle(method, lendResult(fn), true)
}

// HandleReply registers a handler in the server's own shape, replacing any
// previous registration for the method — for handlers that need the
// request context (trace propagation, the connection's job identity) or
// answer with bytes they do not own (see Reply.Lend).
func (s *Server) HandleReply(method string, fn ReplyHandler) {
	s.handle(method, fn, false)
}

// lendResult adapts a slice-returning handler to the server's shape.
func lendResult(fn Handler) ReplyHandler {
	return func(_ context.Context, payload []byte, r *Reply) error {
		out, err := fn(payload)
		r.Lend(out, nil)
		return err
	}
}

func (s *Server) handle(method string, fn ReplyHandler, keeps bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = handlerEntry{fn: fn, keeps: keeps}
}

// keeps reports whether method's handler keeps its request payload.
func (s *Server) keeps(_ uint64, method string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.handlers[method].keeps
}

// Listen binds addr ("host:port"; ":0" picks a free port) and starts
// accepting in a background goroutine. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("wire: listen %s: %w", addr, err)
	}
	s.lis = lis
	go s.acceptLoop()
	return lis.Addr().String(), nil
}

// Addr returns the bound address, or "" before Listen.
func (s *Server) Addr() string {
	if s.lis == nil {
		return ""
	}
	return s.lis.Addr().String()
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return // listener closed
		}
		// Close sets closed before it takes connsMu to close what is in
		// connsSet and wait for it, so under connsMu a connection is
		// either refused here or closed and waited for by Close.
		s.connsMu.Lock()
		if s.closed.Load() {
			s.connsMu.Unlock()
			conn.Close()
			return
		}
		s.connsSet[conn] = struct{}{}
		s.conns.Add(1)
		s.connsMu.Unlock()
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.conns.Done()
	defer func() {
		s.connsMu.Lock()
		delete(s.connsSet, conn)
		s.connsMu.Unlock()
		conn.Close()
	}()

	// gw serialises response frames and coalesces concurrent small
	// responses into batched socket writes (last-writer-out flush).
	gw := newGroupWriter(conn)
	// connJob holds the job identity the client announced for this
	// connection (the wire.job first frame); requests dispatched after it
	// carry the identity in their context. Atomic because dispatch runs
	// on the workers.
	var connJob atomic.Pointer[JobIdentity]
	br := bufio.NewReaderSize(conn, groupBufSize)
	for {
		f, err := readFrame(br, s.keeps)
		if err != nil {
			if !errors.Is(err, io.EOF) && !s.closed.Load() {
				var ne net.Error
				if !errors.As(err, &ne) {
					slog.Error("wire: server read failed", "err", err)
				}
			}
			return
		}
		switch f.Kind {
		case KindOneway:
			if f.Method == jobMethod {
				if j, err := decodeJobIdentity(f.Payload); err == nil {
					connJob.Store(&j)
				}
				f.Release()
				continue
			}
			s.serve(request{gw, f, &connJob})
		case KindRequest:
			s.serve(request{gw, f, &connJob})
		default:
			// Clients must not send response frames; drop them.
			f.Release()
		}
	}
}

// request is a frame on its way to a worker, with what dispatch answers
// it through.
type request struct {
	gw  *groupWriter
	f   *Frame
	job *atomic.Pointer[JobIdentity]
}

// maxIdleWorkers caps the workers a Server keeps waiting between requests.
// It bounds what a burst leaves behind, not the requests in flight. 256
// is the most requests a bench/ workload keeps in flight (mixed_rw's
// inflightCap). Measured on bench's mixed_rw (seed 7, 20 s, 2 cores):
// the stack's servers and KV nodes started 109 workers for 361 020
// requests, and no one of them had more than 25 waiting at once, so the
// cap never sends a worker away there.
const maxIdleWorkers = 256

// serve hands r to an idle worker, or starts a worker for it when none is
// idle.
func (s *Server) serve(r request) {
	select {
	case s.handoff <- r:
	default:
		go s.work(r)
	}
}

// work serves r, then each request handed to it while it waits, until the
// server closes or maxIdleWorkers others are already waiting.
func (s *Server) work(r request) {
	for {
		s.dispatch(r.gw, r.f, r.job)
		r = request{} // a waiting worker keeps no connection's writer alive
		if s.idle.Add(1) > maxIdleWorkers {
			s.idle.Add(-1)
			return
		}
		var ok bool
		r, ok = <-s.handoff
		s.idle.Add(-1)
		if !ok {
			return
		}
	}
}

func (s *Server) dispatch(gw *groupWriter, req *Frame, connJob *atomic.Pointer[JobIdentity]) {
	start := time.Now()
	s.mu.RLock()
	fn := s.handlers[req.Method].fn
	s.mu.RUnlock()

	// Rehydrate the caller's trace context: the handler's spans (kvstore
	// fan-out, cache branches, nested RPCs) become children of the span
	// that sent this frame, in a trace recorded in *this* process's
	// collector under the caller's trace ID.
	ctx := context.Background()
	if j := connJob.Load(); j != nil {
		ctx = withJob(ctx, *j)
	}
	var sp *tracing.Span
	if req.Sampled && req.TraceID != 0 {
		ctx, sp = tracing.StartRemote(ctx, "serve "+req.Method, req.TraceID, req.SpanID)
	}

	reply := &req.reply
	reply.Head.buf = req.hdrBuf[:0]
	// Unknown methods are observed under method="?" so a misbehaving
	// client cannot blow up the registry's label cardinality.
	observedMethod := req.Method
	var err error
	if fn == nil {
		observedMethod = "?"
		err = errors.New("wire: unknown method " + req.Method)
	} else {
		err = s.safeCall(ctx, fn, req)
	}
	s.Stats.Requests.Add(1)
	observeServe(observedMethod, start, err != nil)
	if sp != nil {
		sp.SetError(err)
	}
	if req.Kind == KindOneway {
		sp.End()
		reply.done()
		req.Release()
		return
	}
	// The response goes out in the request's own envelope (same Seq): the
	// frame is pooled and already here.
	req.Method, req.TraceID, req.SpanID, req.Sampled = "", 0, 0, false
	if err != nil {
		req.Kind, req.Payload = KindError, []byte(err.Error())
	} else {
		req.Kind, req.Payload, req.lent = KindResponse, reply.Head.buf, reply.body
	}
	respBytes := req.payloadLen()
	if gw.writeFrame(req) == nil {
		s.Stats.BytesOut.Add(uint64(respBytes))
	}
	// The lent body goes back only now that the writer is done with it. The
	// response may also alias the request payload (echo-style handlers), so
	// the frame's buffer recycles after the write too.
	reply.done()
	req.Release()
	// End after the response write so a slow flush of a chunk-sized
	// payload shows up inside the server span, not as unexplained gap
	// between it and the client's call span.
	if sp != nil {
		sp.SetAttr("resp_bytes", fmt.Sprint(respBytes))
		sp.End()
		tracing.ObserveSlow(sp, "diesel_wire_served_seconds:"+observedMethod, time.Since(start))
	}
}

// safeCall invokes a handler, converting a panic into an error so one
// malformed request cannot take the whole server process down.
func (s *Server) safeCall(ctx context.Context, fn ReplyHandler, req *Frame) (err error) {
	defer func() {
		if r := recover(); r != nil {
			slog.Error("wire: handler panicked", "method", req.Method, "panic", r,
				"trace", tracing.FormatID(req.TraceID))
			err = fmt.Errorf("wire: handler %s panicked: %v", req.Method, r)
		}
	}()
	return fn(ctx, req.Payload, &req.reply)
}

// Close stops accepting, closes every open connection, and waits for
// in-flight connection goroutines to finish. Idle workers exit; a busy
// one exits once its handler returns, which Close does not wait for.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	var err error
	if s.lis != nil {
		err = s.lis.Close()
	}
	s.connsMu.Lock()
	for c := range s.connsSet {
		c.Close()
	}
	s.connsMu.Unlock()
	s.conns.Wait()
	close(s.handoff)
	return err
}
