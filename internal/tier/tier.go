// Package tier is DIESEL's one two-level cache: a byte-budgeted RAM LRU
// of immutable []byte values that demotes eviction victims to a local-disk
// spill.Log and serves them back by pread or whole-value promotion. The
// task-side chunk cache (dcache: per-master stores and the SharedCache)
// and the server-side object cache (objstore.Tiered) are both thin users
// of it; reading through to an origin on a miss, and any policy about
// when to promote or which group is cold, stays with the caller.
package tier

import (
	"container/list"
	"errors"
	"sync"
	"sync/atomic"

	"diesel/internal/spill"
)

// The RAM level is sharded so concurrent readers stop convoying on a
// single mutex: Get/Put touch only the shard the key hash selects, each
// shard with its own lock and LRU list.
//
// The byte budget stays global — a single atomic — rather than capacity/N
// per shard: a value is refused only when it exceeds the *whole*
// capacity, and the store never strands capacity in shards the hash
// happens to leave cold.
//
// Eviction is exact global LRU: every entry carries a tick from a shared
// recency clock, and since each shard's list is recency-ordered, the
// globally least-recent entry is always one of the shard tails. The
// evictor scans the tails (one short lock hold per shard, never two locks
// at once) and removes the oldest, so a capacity-bound chunk-wise reader
// keeps the one-load-per-chunk behaviour dcache's shuffle integration
// test pins.
const (
	shardCount = 16 // must be a power of two
	// genSlots invalidation generations, a multiple of shardCount so a
	// key's slot is guarded by its shard's lock. More slots than shards
	// only so that a Remove spoils few unrelated in-flight fills.
	genSlots = 256
)

var errSpillEnabled = errors.New("tier: spill level already enabled")

// Store is the two-level cache. All methods are safe for concurrent use.
type Store struct {
	capacity int64                   // 0 = unlimited; immutable after New
	groupOf  func(key string) string // accounting/eviction group of a key
	used     atomic.Int64            // value bytes across all shards
	clock    atomic.Uint64           // global recency tick source
	site     *Site                   // metric aggregation point, if any

	// spill, when set, is the local-disk level under the RAM level. Atomic
	// so enabling it on a store already serving reads is safe.
	spill atomic.Pointer[spillLevel]
	// demoteMu orders demotion writes against Remove: demotions share it,
	// Remove takes it exclusively around the log removal, so a victim
	// evicted just before its key was invalidated cannot land in the log
	// after the invalidation.
	demoteMu sync.RWMutex

	demotions, demotedB, promos, hits, misses atomic.Uint64

	gens   [genSlots]atomic.Uint64 // written under the slot's shard lock
	shards [shardCount]shard
}

type spillLevel struct {
	log      *spill.Log
	rewarmed spill.Recovered
}

type shard struct {
	mu    sync.Mutex
	items map[string]*list.Element
	lru   *list.List // front = most recent; values are *entry
	// demoting holds eviction victims from the moment they leave items
	// until their spill write has returned. Get consults it, so a key is
	// never in neither level for the length of a disk write — a reader
	// landing there would refetch the value from its origin.
	demoting map[string]*entry
}

type entry struct {
	key, group string
	val        []byte
	tick       uint64 // recency stamp; read/written under the owning shard's lock
}

// New builds a store bounded to capacity value bytes (0 = unlimited).
// groupOf maps a key to the group (dataset) it is accounted under.
func New(capacity int64, groupOf func(key string) string) *Store {
	s := &Store{capacity: capacity, groupOf: groupOf}
	for i := range s.shards {
		s.shards[i].items = make(map[string]*list.Element)
		s.shards[i].lru = list.New()
		s.shards[i].demoting = make(map[string]*entry)
	}
	return s
}

// slot returns the shard holding key and the invalidation generation
// guarding it, both picked by the low bits of key's FNV-1a hash.
func (s *Store) slot(key string) (*shard, *atomic.Uint64) {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &s.shards[h&(shardCount-1)], &s.gens[h&(genSlots-1)]
}

// Get returns key's value when it is RAM-resident — cached, or evicted
// with its demotion still in flight. The slice is the cached buffer
// itself: read-only, and — values being plain GC-owned slices, never
// pooled — still valid after the entry is evicted, demoted or removed.
func (s *Store) Get(key string) ([]byte, bool) {
	sh, _ := s.slot(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.items[key]
	if !ok {
		if e, ok := sh.demoting[key]; ok {
			return e.val, true
		}
		return nil, false
	}
	sh.lru.MoveToFront(el)
	e := el.Value.(*entry)
	e.tick = s.clock.Add(1)
	return e.val, true
}

// Gen returns key's invalidation generation. A caller filling the store
// from an origin reads it before the origin and hands it to Put, so a
// Remove that lands in between wins over the fill.
func (s *Store) Gen(key string) uint64 {
	_, g := s.slot(key)
	return g.Load()
}

// Put inserts val (retained, not copied) unless key was invalidated since
// gen was read, returning the evictions it caused and whether the value
// is cached. A value larger than the whole capacity is refused outright:
// evicting everything could not make it fit. prefer, when non-nil, marks
// groups whose entries should be evicted first; nil keeps plain global
// LRU.
func (s *Store) Put(key string, val []byte, gen uint64, prefer func(group string) bool) (evicted uint64, cached bool) {
	size := int64(len(val))
	if s.capacity > 0 && size > s.capacity {
		return 0, false
	}
	added, cached := s.insert(key, val, gen)
	if added {
		s.used.Add(size)
		if s.capacity > 0 {
			evicted = s.evictOver(s.capacity, key, prefer)
		}
	}
	return evicted, cached
}

// PutIfRoom is Put without eviction: val is cached only into room the
// budget has left, so it never displaces another entry.
func (s *Store) PutIfRoom(key string, val []byte, gen uint64) (cached bool) {
	size := int64(len(val))
	for {
		u := s.used.Load()
		if s.capacity > 0 && u+size > s.capacity {
			return false
		}
		if s.used.CompareAndSwap(u, u+size) {
			break
		}
	}
	added, cached := s.insert(key, val, gen)
	if !added {
		s.used.Add(-size)
	}
	return cached
}

// insert links val under key into its shard unless key was invalidated
// since gen; a key already cached counts as cached, not added.
func (s *Store) insert(key string, val []byte, gen uint64) (added, cached bool) {
	group := s.groupOf(key)
	sh, g := s.slot(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if g.Load() != gen {
		return false, false
	}
	if _, dup := sh.items[key]; dup {
		return false, true
	}
	sh.items[key] = sh.lru.PushFront(&entry{key: key, group: group, val: val, tick: s.clock.Add(1)})
	return true, true
}

// Remove invalidates key in both levels — persisted in the spill log, so
// a restart does not resurrect it. Callers mutate the origin first and
// Remove after: a fill that read the old origin then carries an old Gen.
func (s *Store) Remove(key string) {
	sh, g := s.slot(key)
	sh.mu.Lock()
	g.Add(1)
	if el, ok := sh.items[key]; ok {
		sh.lru.Remove(el)
		delete(sh.items, key)
		s.used.Add(-int64(len(el.Value.(*entry).val)))
	}
	delete(sh.demoting, key) // its write sees the new generation and stops
	sh.mu.Unlock()
	if sp := s.spill.Load(); sp != nil {
		s.demoteMu.Lock()
		sp.log.Remove(key)
		s.demoteMu.Unlock()
	}
}

// evictOver removes least-recent entries until used fits the budget. The
// freshly inserted key (keep) is exempt. Locks are taken one shard at a
// time; a shard whose tail changes between the scan and the removal just
// triggers a rescan.
//
// Victim order: among the shard tails, an entry of a preferred (cold)
// group beats any entry of a live one, oldest-first within each class —
// cold groups see no reads, so their entries sink to the tails on their
// own and the preference finds them there. prefer may be costly (dcache
// asks a job registry), so one pass asks it once per group; the answers
// stay on the stack.
func (s *Store) evictOver(capacity int64, keep string, prefer func(string) bool) (evicted uint64) {
	type answer struct {
		group     string
		preferred bool
	}
	asked := make([]answer, 0, shardCount)
	preferred := func(group string) bool {
		for _, a := range asked {
			if a.group == group {
				return a.preferred
			}
		}
		a := answer{group, prefer(group)}
		asked = append(asked, a)
		return a.preferred
	}
	for s.used.Load() > capacity {
		victim, coldVictim := -1, -1
		var oldest, coldOldest uint64
		for i := range s.shards {
			sh := &s.shards[i]
			sh.mu.Lock()
			var key, group string
			var tick uint64
			ok := false
			if back := sh.lru.Back(); back != nil {
				e := back.Value.(*entry)
				key, group, tick, ok = e.key, e.group, e.tick, true
			}
			sh.mu.Unlock()
			if !ok || key == keep {
				continue
			}
			if victim < 0 || tick < oldest {
				victim, oldest = i, tick
			}
			// Coldness may consult a registry; never judged under a shard lock.
			if prefer != nil && preferred(group) && (coldVictim < 0 || tick < coldOldest) {
				coldVictim, coldOldest = i, tick
			}
		}
		if coldVictim >= 0 {
			victim = coldVictim
		}
		if victim < 0 {
			return evicted // only the protected key is left
		}
		sh := &s.shards[victim]
		sh.mu.Lock()
		back := sh.lru.Back()
		if back == nil || back.Value.(*entry).key == keep {
			sh.mu.Unlock()
			continue // raced with a concurrent Get/Put; rescan
		}
		e := back.Value.(*entry)
		sh.lru.Remove(back)
		delete(sh.items, e.key)
		sp := s.spill.Load()
		if sp != nil {
			sh.demoting[e.key] = e
		}
		gen := s.Gen(e.key)
		sh.mu.Unlock()
		s.used.Add(-int64(len(e.val)))
		if sp != nil {
			// Demotion happens outside every shard lock: the spill write
			// is disk I/O and must never convoy the hit path.
			s.demote(sp, e, gen)
			sh.mu.Lock()
			if sh.demoting[e.key] == e {
				delete(sh.demoting, e.key)
			}
			sh.mu.Unlock()
		}
		evicted++
	}
	return evicted
}

// demote moves an evicted entry's value to the spill level, unless its
// key was invalidated since the eviction (gen). Values are immutable, so
// a key already spilled needs no disk write — the log reports
// written=false and re-demotion is free.
func (s *Store) demote(sp *spillLevel, e *entry, gen uint64) {
	s.demoteMu.RLock()
	defer s.demoteMu.RUnlock()
	if s.Gen(e.key) != gen {
		return
	}
	written, err := sp.log.Add(e.key, e.val)
	if err != nil {
		return // disk trouble: the demotion degrades to a plain drop
	}
	s.demotions.Add(1)
	if written {
		s.demotedB.Add(uint64(len(e.val)))
	}
}

// DemoteAll pushes every RAM-resident value down to the spill level (a
// no-op without one), so a planned stop leaves the whole working set on
// local disk for the next incarnation.
func (s *Store) DemoteAll() {
	if s.spill.Load() != nil {
		s.evictOver(0, "", nil)
	}
}

// EnableSpill opens the local-disk level in dir, bounded to capacityBytes
// on disk (0 = unlimited), rebuilding its index from the segments a
// previous incarnation left there. Call once; a second call fails.
func (s *Store) EnableSpill(dir string, capacityBytes int64) (spill.Recovered, error) {
	if s.spill.Load() != nil {
		return spill.Recovered{}, errSpillEnabled
	}
	log, rec, err := spill.Open(spill.Config{Dir: dir, CapacityBytes: capacityBytes})
	if err != nil {
		return spill.Recovered{}, err
	}
	if !s.spill.CompareAndSwap(nil, &spillLevel{log: log, rewarmed: rec}) {
		log.Close()
		return spill.Recovered{}, errSpillEnabled
	}
	return rec, nil
}

// Close detaches the store from its metric site and closes the spill
// log, if any; on-disk state stays for the next EnableSpill (the
// warm-restart story). The RAM level needs no teardown and keeps serving.
func (s *Store) Close() error {
	if s.site != nil {
		s.site.retire(s)
	}
	if sp := s.spill.Swap(nil); sp != nil {
		return sp.log.Close()
	}
	return nil
}

// ReadSpill serves one range of a spilled value by a single pread into a
// fresh GC-owned buffer, unverified (the range is a window, not the whole
// value).
func (s *Store) ReadSpill(key string, off, length int64) (b []byte, ok bool) {
	sp := s.spill.Load()
	if sp == nil {
		return nil, false
	}
	b, _, err := sp.log.ReadAt(key, off, length)
	if err != nil {
		return nil, false
	}
	s.hits.Add(1)
	return b, true
}

// SpillSize reports a spilled value's length.
func (s *Store) SpillSize(key string) (int64, bool) {
	sp := s.spill.Load()
	if sp == nil {
		return 0, false
	}
	return sp.log.Size(key)
}

// LoadSpill reads a whole value back out of the spill level, checksum-
// verified; whether it goes back into RAM is the caller's Put. The spill
// entry stays behind, so evicting a copy put back costs no write.
// Failing while a spill level is on counts as a miss of both levels: the
// caller goes to its origin next.
func (s *Store) LoadSpill(key string) ([]byte, bool) {
	sp := s.spill.Load()
	if sp == nil {
		return nil, false
	}
	b, err := sp.log.Get(key)
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	s.promos.Add(1)
	s.hits.Add(1)
	return b, true
}

// Capacity reports the RAM level's byte budget (0 = unlimited).
func (s *Store) Capacity() int64 { return s.capacity }

// Bytes reports the RAM-resident value bytes.
func (s *Store) Bytes() int64 { return s.used.Load() }

// Count reports the RAM-resident entries.
func (s *Store) Count() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}

// Clear empties the RAM level, demoting nothing.
func (s *Store) Clear() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for el := sh.lru.Front(); el != nil; el = el.Next() {
			s.used.Add(-int64(len(el.Value.(*entry).val)))
		}
		sh.items = make(map[string]*list.Element)
		sh.lru = list.New()
		sh.mu.Unlock()
	}
}

// GroupBytes is one group's residency across the two levels.
type GroupBytes struct {
	FastBytes  int64 `json:"fast_bytes"`
	SpillBytes int64 `json:"spill_bytes"`
}

// PerGroup folds resident bytes by group.
func (s *Store) PerGroup() map[string]GroupBytes {
	out := make(map[string]GroupBytes)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for el := sh.lru.Front(); el != nil; el = el.Next() {
			e := el.Value.(*entry)
			gb := out[e.group]
			gb.FastBytes += int64(len(e.val))
			out[e.group] = gb
		}
		sh.mu.Unlock()
	}
	if sp := s.spill.Load(); sp != nil {
		sp.log.Each(func(key string, size int64) {
			group := s.groupOf(key)
			gb := out[group]
			gb.SpillBytes += size
			out[group] = gb
		})
	}
	return out
}
