package wire

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// Ownership tests for the two ends of a lent response: the server hands a
// body it does not own to the writer and gets it back exactly once; the
// client hands a payload it read to a caller who keeps it and never sees
// it again.

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
				if got := d.Bytes32(); d.Err() != nil || d.Remaining() != 0 || !bytes.Equal(got, body) {
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
		fc := InjectFaults(cc, FaultPlan{})
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
			got = f.Clone()
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
