// Package etcd implements the small configuration and membership registry
// DIESEL uses: the paper stores system configuration in an ETCD server, and
// the task-grained distributed cache registers clients through it (lines
// labeled 1 in Figure 7).
//
// It is a map of versioned keys, embeddable in-process or exposed over the
// wire protocol. It is intentionally not a consensus
// system: the paper uses a single ETCD endpoint per deployment, and the
// registry's job here is membership + configuration, both of which the
// tests exercise through failure injection at the consumer layer.
package etcd

import (
	"errors"
	"sort"
	"strings"
	"sync"

	"diesel/internal/wire"
)

// Entry is one registry record.
type Entry struct {
	Key     string
	Value   []byte
	Version uint64 // increments on every update of this key
}

// ErrNotFound is returned for missing keys.
var ErrNotFound = errors.New("etcd: key not found")

// Registry is the in-process implementation. All methods are safe for
// concurrent use.
type Registry struct {
	mu   sync.Mutex
	data map[string]Entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{data: make(map[string]Entry)}
}

// Put stores value under key and returns the key's new version.
func (r *Registry) Put(key string, value []byte) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.data[key]
	e.Key = key
	e.Value = append([]byte(nil), value...)
	e.Version++
	r.data[key] = e
	return e.Version
}

// Get returns the entry for key.
func (r *Registry) Get(key string) (Entry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.data[key]
	if !ok {
		return Entry{}, ErrNotFound
	}
	return e, nil
}

// Delete removes key, reporting whether it existed.
func (r *Registry) Delete(key string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.data[key]
	delete(r.data, key)
	return ok
}

// List returns entries with the given key prefix, sorted by key.
func (r *Registry) List(prefix string) []Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Entry
	for k, e := range r.data {
		if strings.HasPrefix(k, prefix) {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// --- networked façade ---

const (
	methodPut  = "etcd.put"
	methodGet  = "etcd.get"
	methodDel  = "etcd.del"
	methodList = "etcd.list"
)

// Server exposes a Registry over the wire protocol.
type Server struct {
	reg  *Registry
	rpc  *wire.Server
	addr string
}

// NewServer starts a registry server on addr.
func NewServer(addr string) (*Server, error) {
	s := &Server{reg: NewRegistry(), rpc: wire.NewServer()}
	s.register()
	bound, err := s.rpc.Listen(addr)
	if err != nil {
		return nil, err
	}
	s.addr = bound
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.addr }

// Registry returns the backing in-process registry.
func (s *Server) Registry() *Registry { return s.reg }

// Close stops the server.
func (s *Server) Close() error { return s.rpc.Close() }

func (s *Server) register() {
	s.rpc.Handle(methodPut, func(p []byte) ([]byte, error) {
		d := wire.NewDecoder(p)
		key := d.String()
		val := d.Bytes32()
		if err := d.Err(); err != nil {
			return nil, err
		}
		v := s.reg.Put(key, val)
		e := wire.NewEncoder(8)
		e.Uint64(v)
		return e.Bytes(), nil
	})
	s.rpc.Handle(methodGet, func(p []byte) ([]byte, error) {
		d := wire.NewDecoder(p)
		key := d.String()
		if err := d.Err(); err != nil {
			return nil, err
		}
		ent, err := s.reg.Get(key)
		e := wire.NewEncoder(32)
		if err != nil {
			e.Bool(false)
			e.Bytes32(nil)
			e.Uint64(0)
		} else {
			e.Bool(true)
			e.Bytes32(ent.Value)
			e.Uint64(ent.Version)
		}
		return e.Bytes(), nil
	})
	s.rpc.Handle(methodDel, func(p []byte) ([]byte, error) {
		d := wire.NewDecoder(p)
		key := d.String()
		if err := d.Err(); err != nil {
			return nil, err
		}
		ok := s.reg.Delete(key)
		e := wire.NewEncoder(1)
		e.Bool(ok)
		return e.Bytes(), nil
	})
	s.rpc.Handle(methodList, func(p []byte) ([]byte, error) {
		d := wire.NewDecoder(p)
		prefix := d.String()
		if err := d.Err(); err != nil {
			return nil, err
		}
		ents := s.reg.List(prefix)
		e := wire.NewEncoder(256)
		e.Uint32(uint32(len(ents)))
		for _, ent := range ents {
			e.String(ent.Key)
			e.Bytes32(ent.Value)
			e.Uint64(ent.Version)
		}
		return e.Bytes(), nil
	})
}

// Client talks to a registry Server.
type Client struct{ c *wire.Client }

// Dial connects to a registry server.
func Dial(addr string) (*Client, error) {
	c, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &Client{c: c}, nil
}

// Put stores value under key and returns the new version.
func (cl *Client) Put(key string, value []byte) (uint64, error) {
	e := wire.NewEncoder(len(key) + len(value) + 16)
	e.String(key)
	e.Bytes32(value)
	resp, err := cl.c.Call(methodPut, e.Bytes())
	if err != nil {
		return 0, err
	}
	d := wire.NewDecoder(resp)
	return d.Uint64(), d.Err()
}

// Get fetches key.
func (cl *Client) Get(key string) (Entry, error) {
	e := wire.NewEncoder(len(key) + 8)
	e.String(key)
	resp, err := cl.c.Call(methodGet, e.Bytes())
	if err != nil {
		return Entry{}, err
	}
	d := wire.NewDecoder(resp)
	ok := d.Bool()
	val := append([]byte(nil), d.Bytes32()...)
	ver := d.Uint64()
	if err := d.Err(); err != nil {
		return Entry{}, err
	}
	if !ok {
		return Entry{}, ErrNotFound
	}
	return Entry{Key: key, Value: val, Version: ver}, nil
}

// Delete removes key.
func (cl *Client) Delete(key string) (bool, error) {
	e := wire.NewEncoder(len(key) + 8)
	e.String(key)
	resp, err := cl.c.Call(methodDel, e.Bytes())
	if err != nil {
		return false, err
	}
	d := wire.NewDecoder(resp)
	return d.Bool(), d.Err()
}

// List returns entries under prefix.
func (cl *Client) List(prefix string) ([]Entry, error) {
	e := wire.NewEncoder(len(prefix) + 8)
	e.String(prefix)
	resp, err := cl.c.Call(methodList, e.Bytes())
	if err != nil {
		return nil, err
	}
	d := wire.NewDecoder(resp)
	n := int(d.Uint32())
	out := make([]Entry, 0, n)
	for range n {
		k := d.String()
		v := append([]byte(nil), d.Bytes32()...)
		ver := d.Uint64()
		out = append(out, Entry{Key: k, Value: v, Version: ver})
	}
	return out, d.Err()
}

// Close tears down the connection.
func (cl *Client) Close() error { return cl.c.Close() }

// InProcess adapts a Registry to the error-returning interface shared with
// Client, so components can take either a local registry or a networked
// one.
type InProcess struct{ R *Registry }

// Put stores value under key.
func (a InProcess) Put(key string, value []byte) (uint64, error) {
	return a.R.Put(key, value), nil
}

// Get fetches key.
func (a InProcess) Get(key string) (Entry, error) { return a.R.Get(key) }

// Delete removes key.
func (a InProcess) Delete(key string) (bool, error) { return a.R.Delete(key), nil }

// List returns entries under prefix.
func (a InProcess) List(prefix string) ([]Entry, error) { return a.R.List(prefix), nil }
