package kvstore

import (
	"context"
	"errors"
	"sync"

	"diesel/internal/wire"
)

// RPC method names served by a KV node.
const (
	methodGet    = "kv.get"
	methodSet    = "kv.set"
	methodMSet   = "kv.mset"
	methodMGet   = "kv.mget"
	methodDel    = "kv.del"
	methodPScan  = "kv.pscan"
	methodFlush  = "kv.flush"
	methodDBSize = "kv.dbsize"
)

// ErrNotFound is returned by Get for missing keys.
var ErrNotFound = errors.New("kvstore: key not found")

// Server exposes one Store over the wire protocol: one "Redis instance".
type Server struct {
	store *Store

	mu   sync.Mutex // guards rpc across Restart
	rpc  *wire.Server
	addr string
}

// NewServer creates a KV node and binds it to addr (":0" for ephemeral).
func NewServer(addr string) (*Server, error) {
	s := &Server{store: NewStore(), rpc: wire.NewServer()}
	s.register()
	bound, err := s.rpc.Listen(addr)
	if err != nil {
		return nil, err
	}
	s.addr = bound
	return s, nil
}

// Addr returns the node's bound address.
func (s *Server) Addr() string { return s.addr }

// Store exposes the node's backing store; tests and the wipe/failure
// injection paths use it directly.
func (s *Server) Store() *Store { return s.store }

// cur returns the live wire server (it is swapped by Restart).
func (s *Server) cur() *wire.Server {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rpc
}

// Requests returns the number of RPCs served, for QPS accounting.
// Restart resets the count (a restarted process starts at zero).
func (s *Server) Requests() uint64 { return s.cur().Stats.Requests.Load() }

// Close kills the node: in-flight and future requests fail, and (being an
// in-memory store) its data is unreachable until recovery rebuilds it.
func (s *Server) Close() error { return s.cur().Close() }

// Restart re-binds a Closed node on its original address with its data
// intact — a node outage and recovery, as opposed to Wipe's data loss.
// Scripted fault schedules use Close/Restart pairs as timed kill windows;
// client pools self-heal onto the revived listener.
func (s *Server) Restart() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rpc.Close() // no-op when already closed
	s.rpc = wire.NewServer()
	s.register()
	_, err := s.rpc.Listen(s.addr)
	return err
}

// Wipe simulates scenario (b) of §4.1.2: the node restarts empty.
func (s *Server) Wipe() { s.store.Flush() }

func (s *Server) register() {

	// The answer is laid out as Encoder.Bool + Encoder.Bytes32 would lay it
	// out, with the stored value lent: stored values are never mutated (see
	// Store), so it goes to the wire from where it lies. The key is read
	// where it lies in the request.
	s.rpc.HandleReply(methodGet, func(_ context.Context, p []byte, r *wire.Reply) error {
		d := wire.NewDecoder(p)
		key := d.Bytes32()
		if err := d.Err(); err != nil {
			return err
		}
		v, ok := s.store.lookup(key)
		r.Head.Bool(ok)
		r.Head.Uint32(uint32(len(v)))
		r.Lend(v, nil)
		return nil
	})

	s.rpc.Handle(methodSet, func(p []byte) ([]byte, error) {
		d := wire.NewDecoder(p)
		key := d.String()
		val := d.Bytes32()
		if err := d.Err(); err != nil {
			return nil, err
		}
		s.store.Set(key, append([]byte(nil), val...))
		return nil, nil
	})

	s.rpc.Handle(methodMSet, func(p []byte) ([]byte, error) {
		d := wire.NewDecoder(p)
		n := int(d.Uint32())
		for range n {
			key := d.String()
			val := d.Bytes32()
			if err := d.Err(); err != nil {
				return nil, err
			}
			s.store.Set(key, append([]byte(nil), val...))
		}
		return nil, nil
	})

	s.rpc.Handle(methodMGet, s.mget)

	s.rpc.Handle(methodDel, func(p []byte) ([]byte, error) {
		d := wire.NewDecoder(p)
		key := d.String()
		if err := d.Err(); err != nil {
			return nil, err
		}
		ok := s.store.Del(key)
		e := wire.NewEncoder(1)
		e.Bool(ok)
		return e.Bytes(), nil
	})

	s.rpc.Handle(methodPScan, func(p []byte) ([]byte, error) {
		d := wire.NewDecoder(p)
		prefix := d.String()
		if err := d.Err(); err != nil {
			return nil, err
		}
		keys, values := s.store.ScanPrefix(prefix)
		e := wire.NewEncoder(256)
		e.Uint32(uint32(len(keys)))
		for i, k := range keys {
			e.String(k)
			e.Bytes32(values[i])
		}
		return e.Bytes(), nil
	})

	s.rpc.Handle(methodFlush, func(p []byte) ([]byte, error) {
		s.store.Flush()
		return nil, nil
	})

	s.rpc.Handle(methodDBSize, func(p []byte) ([]byte, error) {
		e := wire.NewEncoder(8)
		e.Uint64(uint64(s.store.Len()))
		return e.Bytes(), nil
	})
}

// mgetOnStack is how many keys' answers kv.mget holds on its stack; a
// larger request allocates room for them.
const mgetOnStack = 16

// hit is one key's answer to kv.mget.
type hit struct {
	v  []byte
	ok bool
}

// mget answers kv.mget: the count, then each key's found flag and value,
// laid out as Encoder.Bool + Encoder.Bytes32 lay them out. Each key is
// read where it lies in the request and looked up once, and the answer is
// one allocation of exactly its size.
func (s *Server) mget(p []byte) ([]byte, error) {
	d := wire.NewDecoder(p)
	n := int(d.Uint32())
	// Each key takes at least its 4-byte length, so a larger count is a
	// malformed request, refused before it sizes anything.
	if n > len(p)/4 {
		return nil, wire.ErrShortPayload
	}
	var onStack [mgetOnStack]hit
	hits := onStack[:0]
	if n > len(onStack) {
		hits = make([]hit, 0, n)
	}
	size := 4
	for range n {
		v, ok := s.store.lookup(d.Bytes32())
		hits = append(hits, hit{v, ok})
		size += 5 + len(v)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	e := wire.NewEncoder(size)
	e.Uint32(uint32(n))
	for _, h := range hits {
		e.Bool(h.ok)
		e.Bytes32(h.v)
	}
	return e.Bytes(), nil
}
