package wire

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Ownership tests for the two ends of a lent response — the server hands a
// body it does not own to the writer and gets it back exactly once; the
// client hands a payload it read to a caller who keeps it and never sees
// it again — and, below them, for the two ends of a lent request: the
// caller's body goes to the socket from where it lies and is the caller's
// again when the call returns; a handler that keeps its request gets an
// allocation no pool ever sees.

// pattern is n bytes no two offsets of which repeat within a kilobyte, so a
// shifted or recycled buffer cannot pass for the original.
func pattern(seed byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i) + byte(i>>8)*31
	}
	return b
}

// writeCounter records what each Write call carried.
type writeCounter struct {
	writes [][]byte
	err    error
}

func (w *writeCounter) Write(b []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	w.writes = append(w.writes, append([]byte(nil), b...))
	return len(b), nil
}

// dispatchOnce runs one request of the given kind through s.dispatch with
// w as the connection, as serveConn would.
func dispatchOnce(s *Server, w io.Writer, kind byte, method string) {
	req := newFrame()
	req.Kind, req.Seq, req.Method = kind, 7, method
	var job atomic.Pointer[JobIdentity]
	s.dispatch(newGroupWriter(w), req, &job)
}

// TestLentBodyReleasedExactlyOnce: whatever way a dispatch ends, the body
// a handler lent comes back once — after the write when there is one.
func TestLentBodyReleasedExactlyOnce(t *testing.T) {
	for _, size := range []int{100, groupBufSize + 100} { // coalesced and direct write paths
		body := pattern(1, size)
		var released atomic.Int32
		var w *writeCounter
		afterWrite := false // set for the case whose body must outlast the write
		lend := func(r *Reply) {
			r.Head.Uint32(uint32(len(body)))
			r.Lend(body, func() {
				if released.Add(1) == 1 && afterWrite && len(w.writes) == 0 {
					t.Errorf("size %d: released before the response was written", size)
				}
			})
		}
		s := NewServer()
		s.HandleReply("ok", func(_ context.Context, _ []byte, r *Reply) error {
			lend(r)
			return nil
		})
		s.HandleReply("fails", func(_ context.Context, _ []byte, r *Reply) error {
			lend(r)
			return errors.New("after the read")
		})
		s.HandleReply("panics", func(_ context.Context, _ []byte, r *Reply) error {
			lend(r)
			panic("after the read")
		})
		s.HandleReply("twice", func(_ context.Context, _ []byte, r *Reply) error {
			lend(r)
			r.Lend([]byte("second thoughts"), nil) // takes the first body back on the spot
			if released.Load() != 1 {
				t.Errorf("size %d: replacing a lent body did not release it", size)
			}
			return nil
		})
		cases := []struct {
			name, method string
			kind         byte
			writeErr     error
			wantKind     byte // 0: nothing reaches the wire
		}{
			{"written", "ok", KindRequest, nil, KindResponse},
			{"write error", "ok", KindRequest, errors.New("conn gone"), 0},
			{"handler error", "fails", KindRequest, nil, KindError},
			{"handler panic", "panics", KindRequest, nil, KindError},
			{"oneway", "ok", KindOneway, nil, 0},
			{"lent twice", "twice", KindRequest, nil, KindResponse},
		}
		for _, c := range cases {
			released.Store(0)
			w = &writeCounter{err: c.writeErr}
			afterWrite = c.name == "written"
			dispatchOnce(s, w, c.kind, c.method)
			if n := released.Load(); n != 1 {
				t.Errorf("size %d, %s: release ran %d times, want 1", size, c.name, n)
			}
			if c.wantKind == 0 {
				if len(w.writes) != 0 {
					t.Errorf("size %d, %s: %d writes, want none", size, c.name, len(w.writes))
				}
				continue
			}
			if len(w.writes) != 1 {
				t.Fatalf("size %d, %s: %d writes, want one whole frame", size, c.name, len(w.writes))
			}
			f, err := ReadFrame(bytes.NewReader(w.writes[0]))
			if err != nil {
				t.Fatalf("size %d, %s: response does not decode: %v", size, c.name, err)
			}
			if f.Kind != c.wantKind || f.Seq != 7 {
				t.Errorf("size %d, %s: response kind %d seq %d, want kind %d seq 7", size, c.name, f.Kind, f.Seq, c.wantKind)
			}
			if c.name == "written" {
				d := NewDecoder(f.Payload)
				if got := d.Bytes32(); d.Err() != nil || d.remaining() != 0 || !bytes.Equal(got, body) {
					t.Errorf("size %d: head+body did not arrive as one Bytes32 payload", size)
				}
			}
			f.Release()
		}
	}
}

// countingConn counts the Write calls that reach a connection.
type countingConn struct {
	net.Conn
	writes atomic.Int32
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// TestLentBodyFrameIsOneWriteOffTCP: a writer that is not a TCP connection
// — here a fault-injected one, which drops or severs whole Write calls —
// must see a head+body frame as exactly one Write, byte-identical to the
// same payload sent contiguously.
func TestLentBodyFrameIsOneWriteOffTCP(t *testing.T) {
	for _, size := range []int{0, 10, groupBufSize + 100} {
		head, body := []byte{0, 1, 2, 3}, pattern(2, size)
		var whole bytes.Buffer
		if err := WriteFrame(&whole, &Frame{Kind: KindResponse, Seq: 3, Payload: append(append([]byte(nil), head...), body...)}); err != nil {
			t.Fatal(err)
		}

		near, far := net.Pipe()
		cc := &countingConn{Conn: near}
		fc := (&FaultGate{}).inject(cc)
		got := make(chan []byte, 1)
		go func() {
			b, _ := io.ReadAll(far)
			got <- b
		}()
		if err := WriteFrame(fc, &Frame{Kind: KindResponse, Seq: 3, Payload: head, lent: body}); err != nil {
			t.Fatal(err)
		}
		near.Close()
		if b := <-got; !bytes.Equal(b, whole.Bytes()) {
			t.Errorf("size %d: head+body frame differs on the wire from the contiguous one", size)
		}
		if n := cc.writes.Load(); n != 1 {
			t.Errorf("size %d: %d Write calls, want 1", size, n)
		}
		f, err := ReadFrame(bytes.NewReader(whole.Bytes()))
		if err != nil || !bytes.Equal(f.Payload[len(head):], body) {
			t.Errorf("size %d: decoded payload differs from head+body (%v)", size, err)
		}
	}
}

// startLendServer serves "lend" (the request names a size; the response is
// that much of one shared read-only pattern, lent, behind a 4-byte head)
// and "hold", which answers only once unhold is closed.
func startLendServer(t *testing.T) (addr string, stored []byte, releases *atomic.Int64, unhold chan struct{}) {
	t.Helper()
	stored = pattern(3, 1<<20)
	releases = new(atomic.Int64)
	unhold = make(chan struct{})
	s := NewServer()
	s.HandleReply("lend", func(_ context.Context, p []byte, r *Reply) error {
		n := int(NewDecoder(p).Uint32())
		r.Head.Uint32(uint32(n))
		r.Lend(stored[:n], func() { releases.Add(1) })
		return nil
	})
	s.Handle("hold", func(p []byte) ([]byte, error) {
		<-unhold
		return pattern(9, 100_000), nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return addr, stored, releases, unhold
}

func lendReq(n int) []byte {
	e := NewEncoder(4)
	e.Uint32(uint32(n))
	return e.Bytes()
}

// TestOwnedPayloadIsNeverRecycled: over real TCP (the vectored write), a
// payload CallContext handed out stays what it was while a thousand further
// calls of mixed sizes, owned and borrowed, run on the same connection.
func TestOwnedPayloadIsNeverRecycled(t *testing.T) {
	addr, stored, releases, _ := startLendServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	const keep = 270_000
	kept, err := c.CallContext(ctx, "lend", lendReq(keep))
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 4+keep || cap(kept) != len(kept) {
		t.Errorf("owned payload len %d cap %d, want both %d: the allocation is exact", len(kept), cap(kept), 4+keep)
	}
	sizes := []int{0, 1, 100, 4096, groupBufSize - 40, groupBufSize, 200_000, keep, 1 << 20}
	for i := range 1000 {
		n := sizes[i%len(sizes)]
		var got []byte
		if i%2 == 0 {
			if got, err = c.CallContext(ctx, "lend", lendReq(n)); err != nil {
				t.Fatal(err)
			}
		} else {
			f, err := c.CallBorrowContext(ctx, "lend", lendReq(n))
			if err != nil {
				t.Fatal(err)
			}
			got = bytes.Clone(f.Payload)
			f.Release()
		}
		if !bytes.Equal(got[4:], stored[:n]) {
			t.Fatalf("call %d: %d-byte response corrupted", i, n)
		}
	}
	if !bytes.Equal(kept[4:], stored[:keep]) {
		t.Error("the kept payload changed under later calls: its buffer was recycled")
	}
	// The server takes a body back after its write returns, which the
	// client's read of the last response can overtake.
	for deadline := time.Now().Add(5 * time.Second); releases.Load() != 1001; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("server released %d lent bodies for 1001 responses", releases.Load())
		}
	}
}

// TestLateResponseIsDropped: a response whose caller already timed out is
// read and dropped; it reaches no later caller, owner or borrower, and
// leaves nothing pending.
func TestLateResponseIsDropped(t *testing.T) {
	addr, stored, _, unhold := startLendServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := c.CallContext(ctx, "hold", nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("held call returned %v, want a deadline error", err)
	}
	close(unhold) // the 100 kB answer to nobody is on its way now
	for i := range 50 {
		n := 1000 * (i + 1)
		got, err := c.CallContext(context.Background(), "lend", lendReq(n))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 4+n || !bytes.Equal(got[4:], stored[:n]) {
			t.Fatalf("call %d got %d bytes that are not its own response", i, len(got))
		}
	}
	c.mu.Lock()
	left := len(c.pending)
	c.mu.Unlock()
	if left != 0 {
		t.Errorf("%d calls still pending after every caller returned", left)
	}
}

// TestLateResponseOnATakenChannel: the read loop has taken a call's channel
// out of pending and not yet sent on it when the call's deadline fires. The
// caller returns its deadline error; the frame then lands on the channel it
// left behind. Pending-call channels are recycled, so that channel must not
// be among them: 1 000 calls on the same client afterwards each get their
// own payload back, never the abandoned frame.
func TestLateResponseOnATakenChannel(t *testing.T) {
	c, stop := benchServer(t)
	defer stop()
	taken, resume := make(chan struct{}), make(chan struct{})
	var first atomic.Bool
	// Set before the first call; the read loop reads it after taking c.mu,
	// which that call's registration released.
	c.beforeDeliver = func() {
		if first.CompareAndSwap(false, true) {
			close(taken)
			<-resume
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.CallContext(ctx, "echo", []byte("the abandoned call's answer"))
		errc <- err
	}()
	<-taken
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned call returned %v, want its context's error", err)
	}
	close(resume)
	for i := range 1000 {
		want := pattern(byte(i), 64+i%64)
		got, err := c.CallContext(context.Background(), "echo", want)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("call %d got %q, not its own payload", i, got)
		}
	}
}

// rawPeer is the far end of one connection, played by hand: it reads the
// next n bytes when told to and answers request seq with an empty response.
type rawPeer struct {
	addr string
	conn chan net.Conn
}

func startRawPeer(t *testing.T) *rawPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &rawPeer{addr: ln.Addr().String(), conn: make(chan net.Conn, 1)}
	go func() {
		c, err := ln.Accept()
		if err == nil {
			p.conn <- c
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return p
}

func lentRequestFrame(seq uint64, head, body []byte) []byte {
	var whole bytes.Buffer
	WriteFrame(&whole, &Frame{Kind: KindRequest, Seq: seq, Method: "put", Payload: append(bytes.Clone(head), body...)})
	return whole.Bytes()
}

// TestLentRequestGoesOutUnstagedOnTCP: on a TCP connection a chunk-sized
// lent request body reaches the socket from the caller's memory, in the
// frame's one writev — with the staging pool emptied beforehand, a call
// that copied the body anywhere would have to allocate room for it — and
// what arrives is byte for byte the frame a contiguous payload makes.
func TestLentRequestGoesOutUnstagedOnTCP(t *testing.T) {
	peer := startRawPeer(t)
	c, err := Dial(peer.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	far := <-peer.conn
	defer far.Close()

	head, body := []byte{9, 8, 7, 6, 5}, pattern(4, 1<<20)
	keep := bytes.Clone(body)
	want := lentRequestFrame(1, head, body)
	got := make([]byte, len(want))
	readErr := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(far, got)
		if err == nil {
			err = WriteFrame(far, &Frame{Kind: KindResponse, Seq: 1})
		}
		readErr <- err
	}()

	runtime.GC() // twice: a sync.Pool survives one collection
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := c.CallLendContext(context.Background(), "put", head, body); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if err := <-readErr; err != nil {
		t.Fatal(err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(len(body))/4 {
		t.Errorf("the call allocated %d bytes for a %d-byte lent body: it was staged, not sent from where it lies", grew, len(body))
	}
	if !bytes.Equal(got, want) {
		t.Error("head+body request differs on the wire from the contiguous one")
	}
	if !bytes.Equal(body, keep) {
		t.Error("the call modified the lent body")
	}
}

// TestLentRequestIsOneWriteOffTCP: through a fault-injected pipe — a
// writer that drops or severs whole Write calls — every head+body request,
// coalesced or direct, is exactly one Write, byte-identical to the
// contiguous frame.
func TestLentRequestIsOneWriteOffTCP(t *testing.T) {
	for i, size := range []int{0, 10, groupBufSize + 100} {
		near, far := net.Pipe()
		cc := &countingConn{Conn: near}
		c, err := Dial("pipe", WithDialer(func(string) (net.Conn, error) {
			return (&FaultGate{}).inject(cc), nil
		}))
		if err != nil {
			t.Fatal(err)
		}
		head, body := []byte{byte(i), 1, 2, 3}, pattern(6, size)
		want := lentRequestFrame(1, head, body)
		got := make([]byte, len(want))
		go func() {
			if _, err := io.ReadFull(far, got); err == nil {
				WriteFrame(far, &Frame{Kind: KindResponse, Seq: 1})
			}
		}()
		if _, err := c.CallLendContext(context.Background(), "put", head, body); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("size %d: head+body request differs on the wire from the contiguous one", size)
		}
		if n := cc.writes.Load(); n != 1 {
			t.Errorf("size %d: %d Write calls, want 1", size, n)
		}
		c.Close()
		far.Close()
	}
}

// TestLentRequestBodyIsTheCallersAgain: however a call with a lent body
// ends — answered, refused by the handler, never sent, or given up on —
// the body is unmodified when it returns and nothing reads it afterwards:
// each case overwrites the body the moment the call is back (under -race a
// writer still reading it would be a reported race) and then checks what
// the far end received.
func TestLentRequestBodyIsTheCallersAgain(t *testing.T) {
	head := []byte("head")
	const size = 300_000
	scribble := func(t *testing.T, body []byte) {
		t.Helper()
		if !bytes.Equal(body, pattern(7, size)) {
			t.Error("the call modified the lent body")
		}
		for i := range body {
			body[i] = 0xDB
		}
	}
	wantPayload := append(bytes.Clone(head), pattern(7, size)...)

	var mu sync.Mutex
	var kept [][]byte
	s := NewServer()
	s.HandleOwned("keep", func(p []byte) ([]byte, error) {
		mu.Lock()
		kept = append(kept, p)
		mu.Unlock()
		return nil, nil
	})
	s.HandleOwned("refuse", func(p []byte) ([]byte, error) {
		mu.Lock()
		kept = append(kept, p)
		mu.Unlock()
		return nil, errors.New("not today")
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for _, method := range []string{"keep", "refuse"} {
		t.Run(method, func(t *testing.T) {
			p, err := DialPool(addr, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			body := pattern(7, size)
			_, err = p.CallLendContext(context.Background(), method, head, body)
			if (method == "refuse") != IsRemote(err) {
				t.Fatalf("call returned %v", err)
			}
			scribble(t, body)
			mu.Lock()
			got := kept[len(kept)-1]
			mu.Unlock()
			if !bytes.Equal(got, wantPayload) {
				t.Error("the handler received something other than head+body")
			}
		})
	}

	t.Run("write error", func(t *testing.T) {
		c, err := Dial(addr, WithDialer(faultDialer(FaultPlan{SeverProb: 1})))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		body := pattern(7, size)
		if _, err := c.CallLendContext(context.Background(), "keep", head, body); !errors.Is(err, ErrNotSent) {
			t.Fatalf("call on a severed connection returned %v, want ErrNotSent", err)
		}
		scribble(t, body)
	})

	// The pinned rule for a call that gives up: the request is written on
	// the calling goroutine, so the call cannot return — deadline or not —
	// before the write has finished or failed. The peer here does not read
	// until the deadline is long past; the body is larger than the socket
	// buffers between the two, so the write is still in progress then.
	t.Run("deadline", func(t *testing.T) {
		peer := startRawPeer(t)
		c, err := Dial(peer.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		far := <-peer.conn
		defer far.Close()
		const big = 16 << 20
		body := pattern(8, big)
		want := lentRequestFrame(1, head, body)
		const stall = 150 * time.Millisecond
		got := make([]byte, len(want))
		readErr := make(chan error, 1)
		go func() {
			time.Sleep(stall)
			_, err := io.ReadFull(far, got)
			readErr <- err
		}()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		start := time.Now()
		_, err = c.CallLendContext(ctx, "put", head, body)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("call returned %v, want a deadline error", err)
		}
		if took := time.Since(start); took < stall {
			t.Errorf("the call returned after %v, while its body was still being written (the peer reads from %v on)", took, stall)
		}
		for i := range body {
			body[i] = 0xDB
		}
		if err := <-readErr; err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Error("the peer received something other than the body as it was during the call")
		}
	})
}

// TestOwnedRequestIsExactAndNeverPooled: a handler registered with
// HandleOwned gets each payload in an allocation of exactly its size that
// stays what it was while hundreds of further requests of the same sizes
// run on the same connection; every other handler's payloads still come
// out of the pools and go back.
func TestOwnedRequestIsExactAndNeverPooled(t *testing.T) {
	var mu sync.Mutex
	var kept [][]byte
	pooledAt := make(map[*byte]int) // where a pooled 270 kB payload lay → times seen
	s := NewServer()
	s.HandleOwned("keep", func(p []byte) ([]byte, error) {
		mu.Lock()
		kept = append(kept, p)
		mu.Unlock()
		return nil, nil
	})
	s.Handle("pooled", func(p []byte) ([]byte, error) {
		if len(p) == 270_000 {
			mu.Lock()
			pooledAt[&p[0]]++
			mu.Unlock()
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

	ctx := context.Background()
	sizes := []int{1, 5000, groupBufSize - 100, groupBufSize + 1, 270_000}
	var sent [][]byte
	for i := range 300 {
		n := sizes[i%len(sizes)]
		if i%3 == 0 {
			body := pattern(byte(i), n)
			sent = append(sent, body)
			if _, err := c.CallLendContext(ctx, "keep", nil, body); err != nil {
				t.Fatal(err)
			}
		} else if _, err := c.CallContext(ctx, "pooled", pattern(byte(i), n)); err != nil {
			t.Fatal(err)
		}
	}
	for range 50 { // sequential same-size requests: the pool has one buffer to hand back each time
		if _, err := c.CallContext(ctx, "pooled", pattern(1, 270_000)); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(kept) != len(sent) {
		t.Fatalf("handler kept %d payloads of %d sent", len(kept), len(sent))
	}
	for i, p := range kept {
		if cap(p) != len(p) {
			t.Errorf("kept payload %d: len %d cap %d, want an exact allocation", i, len(p), cap(p))
		}
		if !bytes.Equal(p, sent[i]) {
			t.Errorf("kept payload %d (%d bytes) changed under later requests: its buffer was recycled", i, len(p))
		}
		if len(p) > 0 && pooledAt[&p[0]] != 0 {
			t.Errorf("kept payload %d lies where a pooled request was read", i)
		}
	}
	reused := false
	for _, n := range pooledAt {
		reused = reused || n > 1
	}
	if !reused {
		t.Errorf("no pooled request buffer was ever reused across %d places: ordinary requests stopped returning to the pool", len(pooledAt))
	}
}
