package kvstore

import (
	"context"
	"sort"
)

// Local adapts a single in-process Store to the same API as Cluster, so
// components written against the Backend interface (the DIESEL server,
// benchmarks, the cluster simulator) can run without sockets.
type Local struct{ st *Store }

// NewLocal returns a Local over a fresh store.
func NewLocal() *Local { return &Local{st: NewStore()} }

// Store exposes the backing store.
func (l *Local) Store() *Store { return l.st }

// Set implements Backend.
func (l *Local) Set(key string, value []byte) error {
	l.st.Set(key, append([]byte(nil), value...))
	return nil
}

// Get implements Backend.
func (l *Local) Get(key string) ([]byte, error) {
	v, ok := l.st.Get(key)
	if !ok {
		return nil, ErrNotFound
	}
	return append([]byte(nil), v...), nil
}

// GetContext implements Backend: Get, refusing work nobody waits for.
func (l *Local) GetContext(ctx context.Context, key string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return l.Get(key)
}

// MSet implements Backend.
func (l *Local) MSet(pairs []KV) error {
	for _, kv := range pairs {
		l.st.Set(kv.Key, append([]byte(nil), kv.Value...))
	}
	return nil
}

// MGet implements Backend.
func (l *Local) MGet(keys []string) ([][]byte, error) {
	out := make([][]byte, len(keys))
	for i, k := range keys {
		if v, ok := l.st.Get(k); ok {
			out[i] = append([]byte(nil), v...)
		}
	}
	return out, nil
}

// MGetContext implements Backend: MGet, refusing work nobody waits for.
func (l *Local) MGetContext(ctx context.Context, keys []string) ([][]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return l.MGet(keys)
}

// Del implements Backend.
func (l *Local) Del(key string) (bool, error) { return l.st.Del(key), nil }

// ScanPrefix implements Backend.
func (l *Local) ScanPrefix(prefix string) ([]KV, error) {
	keys, values := l.st.ScanPrefix(prefix)
	out := make([]KV, len(keys))
	for i := range keys {
		out[i] = KV{Key: keys[i], Value: append([]byte(nil), values[i]...)}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// FlushAll implements Backend.
func (l *Local) FlushAll() error {
	l.st.Flush()
	return nil
}

// DBSize implements Backend.
func (l *Local) DBSize() (uint64, error) { return uint64(l.st.Len()), nil }

// Close implements Backend.
func (l *Local) Close() error { return nil }
