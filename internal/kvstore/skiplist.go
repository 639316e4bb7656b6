// Package kvstore implements the distributed in-memory key-value database
// DIESEL stores its metadata in — the role a Redis cluster plays in the
// paper. It provides:
//
//   - Store: a single node's in-memory map with GET/SET/DEL and prefix
//     scans, which the DIESEL server reads a dataset's chunk and file
//     records with. Point reads and writes find a key in a hash index, as
//     Redis answers GET from its hash table; a skiplist keeps the keys in
//     order for the scans.
//   - Server: a Store exposed over the wire RPC protocol.
//   - Cluster: a client that shards keys across servers by hash slot,
//     like Redis cluster's 16384-slot scheme, with batched MSET and
//     fan-out prefix scans.
//
// Node failure is first-class: servers can be killed and wiped so the
// metadata-recovery paths of the DIESEL server (§4.1.2 scenarios a and b)
// can be exercised in tests and experiments.
package kvstore

import (
	"math/rand"
	"strings"
	"sync"
)

const (
	maxLevel    = 20
	levelChance = 4 // 1-in-4 promotion, the classic skiplist parameter
)

type node struct {
	key   string
	value []byte
	next  []*node
}

// skiplist is an ordered string→[]byte map. It is not safe for concurrent
// use; Store wraps it with a RWMutex.
type skiplist struct {
	head  *node
	level int
	rng   *rand.Rand
}

func newSkiplist(seed int64) *skiplist {
	return &skiplist{
		head:  &node{next: make([]*node, maxLevel)},
		level: 1,
		rng:   rand.New(rand.NewSource(seed)),
	}
}

func (s *skiplist) randomLevel() int {
	lvl := 1
	for lvl < maxLevel && s.rng.Intn(levelChance) == 0 {
		lvl++
	}
	return lvl
}

// findPredecessors fills prev[i] with the rightmost node at level i whose
// key is < key.
func (s *skiplist) findPredecessors(key string, prev *[maxLevel]*node) *node {
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < key {
			x = x.next[i]
		}
		prev[i] = x
	}
	return x.next[0]
}

// insert adds key, which must not be in the list, and returns its node.
func (s *skiplist) insert(key string, value []byte) *node {
	var prev [maxLevel]*node
	s.findPredecessors(key, &prev)
	lvl := s.randomLevel()
	if lvl > s.level {
		for i := s.level; i < lvl; i++ {
			prev[i] = s.head
		}
		s.level = lvl
	}
	nn := &node{key: key, value: value, next: make([]*node, lvl)}
	for i := 0; i < lvl; i++ {
		nn.next[i] = prev[i].next[i]
		prev[i].next[i] = nn
	}
	return nn
}

// del unlinks n, which must be in the list.
func (s *skiplist) del(n *node) {
	var prev [maxLevel]*node
	s.findPredecessors(n.key, &prev)
	for i := 0; i < s.level; i++ {
		if prev[i].next[i] == n {
			prev[i].next[i] = n.next[i]
		}
	}
	for s.level > 1 && s.head.next[s.level-1] == nil {
		s.level--
	}
}

// scanPrefix calls fn for each key with the given prefix in ascending key
// order, stopping early if fn returns false.
func (s *skiplist) scanPrefix(prefix string, fn func(key string, value []byte) bool) {
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < prefix {
			x = x.next[i]
		}
	}
	for n := x.next[0]; n != nil && strings.HasPrefix(n.key, prefix); n = n.next[0] {
		if !fn(n.key, n.value) {
			return
		}
	}
}

// Store is one KV node's data: a hash index of its keys for point reads
// and writes, beside a skiplist that keeps them in order for prefix scans,
// both guarded by a RWMutex. Reads run concurrently; writes serialise,
// matching the single-threaded command execution of the system it stands
// in for.
//
// Stored values are immutable. Set keeps the caller's slice, and a later
// Set of the same key replaces that slice with another, never writes into
// it; Del drops it. Get and ScanPrefix return the stored slices themselves,
// which are read-only: a node's kv.get lends its value to the connection
// writer without a copy, and the bytes it lent stay what they were while
// the same key is set or deleted.
type Store struct {
	mu  sync.RWMutex
	idx map[string]*node // every key's skiplist node
	sl  *skiplist
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{idx: make(map[string]*node), sl: newSkiplist(1)}
}

// Set stores value under key, copying neither; value becomes the store's
// (see Store) and the caller must not modify it afterwards.
func (st *Store) Set(key string, value []byte) {
	st.mu.Lock()
	if n := st.idx[key]; n != nil {
		n.value = value
	} else {
		st.idx[key] = st.sl.insert(key, value)
	}
	st.mu.Unlock()
}

// Get returns the value stored under key: the stored slice, read-only.
func (st *Store) Get(key string) ([]byte, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if n := st.idx[key]; n != nil {
		return n.value, true
	}
	return nil, false
}

// lookup is Get for a key that lies in a request payload: the index is
// read with the bytes in place, not with a string made of them.
func (st *Store) lookup(key []byte) ([]byte, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if n := st.idx[string(key)]; n != nil {
		return n.value, true
	}
	return nil, false
}

// Del removes key, reporting whether it existed.
func (st *Store) Del(key string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := st.idx[key]
	if n == nil {
		return false
	}
	delete(st.idx, key)
	st.sl.del(n)
	return true
}

// Len returns the number of keys.
func (st *Store) Len() int {
	st.mu.RLock()
	n := len(st.idx)
	st.mu.RUnlock()
	return n
}

// ScanPrefix returns all key/value pairs whose key starts with prefix, in
// ascending key order. The values are the stored slices, read-only.
func (st *Store) ScanPrefix(prefix string) (keys []string, values [][]byte) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	st.sl.scanPrefix(prefix, func(k string, v []byte) bool {
		keys = append(keys, k)
		values = append(values, v)
		return true
	})
	return keys, values
}

// Flush discards all keys (scenario b: total in-memory data loss).
func (st *Store) Flush() {
	st.mu.Lock()
	st.idx = make(map[string]*node)
	st.sl = newSkiplist(2)
	st.mu.Unlock()
}
