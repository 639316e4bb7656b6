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
// use. The returned slice is written to the wire immediately, so handlers
// may reuse buffers only after WriteFrame returns (i.e. never — return
// fresh or read-only slices).
//
// The request payload aliases a pooled frame buffer that is recycled as
// soon as the response is written: handlers must not retain payload (or
// sub-slices of it, including strings aliased via Decoder.Bytes32) past
// return — copy anything that outlives the call. Returning a response that
// aliases the payload is fine; the frame recycles only after the response
// reaches the connection's writer.
type Handler func(payload []byte) ([]byte, error)

// ContextHandler is a Handler that also receives a per-request context.
// The context carries the rehydrated trace span when the request frame
// had a sampled trace block, so everything the handler calls through it
// lands in the caller's cross-process span tree. The context is not
// cancelled when the client disconnects (the protocol has no cancel
// frames); it exists for trace propagation and future deadline plumbing.
type ContextHandler func(ctx context.Context, payload []byte) ([]byte, error)

// Server is a multiplexed RPC server: many in-flight requests per
// connection, each dispatched to its own goroutine, responses matched by
// sequence number. One Server instance backs one listening socket.
type Server struct {
	mu       sync.RWMutex
	handlers map[string]ContextHandler

	lis      net.Listener
	conns    sync.WaitGroup
	closed   atomic.Bool
	connsMu  sync.Mutex
	connsSet map[net.Conn]struct{}

	// Stats counts served requests; experiments read it to report QPS.
	Stats ServerStats
}

// ServerStats holds monotonically increasing counters, safe to read while
// the server runs.
type ServerStats struct {
	Requests atomic.Uint64
	Errors   atomic.Uint64
	BytesIn  atomic.Uint64
	BytesOut atomic.Uint64
}

// NewServer returns a server with no registered methods.
func NewServer() *Server {
	return &Server{
		handlers: make(map[string]ContextHandler),
		connsSet: make(map[net.Conn]struct{}),
	}
}

// Handle registers fn for the given method name, replacing any previous
// registration. Registration after Serve has started is allowed.
func (s *Server) Handle(method string, fn Handler) {
	s.HandleContext(method, func(_ context.Context, payload []byte) ([]byte, error) {
		return fn(payload)
	})
}

// HandleContext registers a context-aware handler, replacing any previous
// registration for the method. Handlers that fan out further RPCs should
// prefer this form so trace context propagates through them.
func (s *Server) HandleContext(method string, fn ContextHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = fn
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
		if s.closed.Load() {
			conn.Close()
			return
		}
		s.connsMu.Lock()
		s.connsSet[conn] = struct{}{}
		s.connsMu.Unlock()
		s.conns.Add(1)
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
	// in per-request goroutines.
	var connJob atomic.Pointer[JobIdentity]
	br := bufio.NewReaderSize(conn, groupBufSize)
	for {
		f, err := ReadFrame(br)
		if err != nil {
			if !errors.Is(err, io.EOF) && !s.closed.Load() {
				var ne net.Error
				if !errors.As(err, &ne) {
					slog.Error("wire: server read failed", "err", err)
				}
			}
			return
		}
		s.Stats.BytesIn.Add(uint64(len(f.Payload)))
		switch f.Kind {
		case KindOneway:
			if f.Method == jobMethod {
				if j, err := decodeJobIdentity(f.Payload); err == nil {
					connJob.Store(&j)
				}
				f.Release()
				continue
			}
			go s.dispatch(gw, f, &connJob)
		case KindRequest:
			go s.dispatch(gw, f, &connJob)
		default:
			// Clients must not send response frames; drop them.
			f.Release()
		}
	}
}

func (s *Server) dispatch(gw *groupWriter, req *Frame, connJob *atomic.Pointer[JobIdentity]) {
	start := time.Now()
	s.mu.RLock()
	fn := s.handlers[req.Method]
	s.mu.RUnlock()

	// Rehydrate the caller's trace context: the handler's spans (kvstore
	// fan-out, cache branches, nested RPCs) become children of the span
	// that sent this frame, in a trace recorded in *this* process's
	// collector under the caller's trace ID.
	ctx := context.Background()
	if j := connJob.Load(); j != nil {
		ctx = WithJob(ctx, *j)
	}
	var sp *tracing.Span
	if req.Sampled && req.TraceID != 0 {
		ctx, sp = tracing.StartRemote(ctx, "serve "+req.Method, req.TraceID, req.SpanID)
	}

	var resp Frame
	resp.Seq = req.Seq
	// Unknown methods are observed under method="?" so a misbehaving
	// client cannot blow up the registry's label cardinality.
	observedMethod := req.Method
	if fn == nil {
		observedMethod = "?"
		resp.Kind = KindError
		resp.Payload = []byte("wire: unknown method " + req.Method)
		s.Stats.Errors.Add(1)
	} else {
		out, err := s.safeCall(ctx, fn, req)
		if err != nil {
			resp.Kind = KindError
			resp.Payload = []byte(err.Error())
			s.Stats.Errors.Add(1)
		} else {
			resp.Kind = KindResponse
			resp.Payload = out
		}
	}
	s.Stats.Requests.Add(1)
	observeServe(observedMethod, start, resp.Kind == KindError)
	if sp != nil {
		if resp.Kind == KindError {
			sp.SetError(errors.New(string(resp.Payload)))
		}
	}
	if req.Kind == KindOneway {
		sp.End()
		req.Release()
		return
	}
	err := gw.writeFrame(&resp)
	if err == nil {
		s.Stats.BytesOut.Add(uint64(len(resp.Payload)))
	}
	respBytes := len(resp.Payload)
	// The response may alias the request payload (echo-style handlers), so
	// the request frame recycles only after the response hit the writer.
	resp.Payload = nil
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
func (s *Server) safeCall(ctx context.Context, fn ContextHandler, req *Frame) (out []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			slog.Error("wire: handler panicked", "method", req.Method, "panic", r,
				"trace", tracing.FormatID(req.TraceID))
			out, err = nil, fmt.Errorf("wire: handler %s panicked: %v", req.Method, r)
		}
	}()
	return fn(ctx, req.Payload)
}

// Close stops accepting, closes every open connection, and waits for
// in-flight connection goroutines to finish.
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
	return err
}
