package dcache

import (
	"context"
	"strings"
	"sync"
	"time"

	"diesel/internal/tier"
)

// RefSource supplies authoritative per-dataset refcounts — how many live
// training jobs are registered on a dataset. *server.JobRegistry
// implements it, so a shared cache co-located with a DIESEL server keeps
// chunks pinned exactly while the job roster says someone is training on
// them, and a crashed job's lease expiry is what un-pins its dataset.
type RefSource interface {
	Refcount(dataset string) int
}

// DefaultGrace is how long a dataset's chunks stay eviction-neutral after
// its last job disappears. The window absorbs job restarts (a crashed
// trainer that re-registers within the grace finds its working set still
// cached) without letting dead datasets squat on capacity forever.
const DefaultGrace = 30 * time.Second

// SharedCache is a node's chunk cache, keyed by (dataset, chunk): what a
// master caches into. A peer joined without one owns an unbounded cache
// of its own; passing one SharedCache to several tasks' Config.Shared
// shares it across tasks and jobs. Two jobs training on the same dataset
// then hit one cached copy of every chunk — the multi-job amplification
// the serving plane is for — while per-dataset refcounts (local
// acquire/release from in-process peers, plus an optional RefSource such
// as the server's job registry) steer eviction: a dataset with zero live
// jobs becomes eviction-preferred once its grace period lapses, so
// abandoned working sets are reclaimed before anything a live job still
// needs.
type SharedCache struct {
	store *tier.Store
	// inflight deduplicates concurrent loads of the same (dataset, chunk)
	// across every peer of the cache: the Oneshot prefetch, peer requests
	// and local reads of one or several jobs may race on a chunk, and it
	// is fetched from the server exactly once. Whole-chunk pulls from a
	// remote master coalesce through it as well, under a per-peer key.
	inflight *inflightTable

	mu       sync.Mutex
	local    map[string]int   // dataset → acquire/release count from in-process peers
	lastLive map[string]int64 // dataset → ns the grace clock (re)started
	wasLive  map[string]bool  // dataset → last observation saw a nonzero refcount
	src      RefSource
	grace    time.Duration
	nowNS    func() int64
}

// NewSharedCache builds a cache bounded to capacityBytes of chunk payload
// (0 = unlimited). grace <= 0 uses DefaultGrace; nowNS nil uses the wall
// clock (tests inject a fake clock to step through the grace window).
//
// The store underneath is internal/tier over whole chunk payloads, keyed
// and accounted by dataset ("dataset\x00chunkID", see Peer.storeKeys),
// reporting into the diesel_tier_*{site="dcache"} series.
func NewSharedCache(capacityBytes int64, grace time.Duration, nowNS func() int64) *SharedCache {
	if grace <= 0 {
		grace = DefaultGrace
	}
	if nowNS == nil {
		nowNS = func() int64 { return time.Now().UnixNano() }
	}
	store := tier.New(capacityBytes, func(key string) string {
		ds, _, _ := strings.Cut(key, "\x00")
		return ds
	})
	tierSite.Add(store)
	return &SharedCache{
		store:    store,
		inflight: &inflightTable{m: make(map[string]*inflightLoad)},
		local:    make(map[string]int),
		lastLive: make(map[string]int64),
		wasLive:  make(map[string]bool),
		grace:    grace,
		nowNS:    nowNS,
	}
}

// SetRefSource installs the authoritative refcount source (the server's
// job registry). Local acquire/release counts are added on top.
func (s *SharedCache) SetRefSource(src RefSource) {
	s.mu.Lock()
	s.src = src
	s.mu.Unlock()
}

// acquire pins a dataset on behalf of one in-process peer; Join calls it
// for every peer of a task that uses this cache.
func (s *SharedCache) acquire(dataset string) {
	now := s.nowNS()
	s.mu.Lock()
	s.local[dataset]++
	s.lastLive[dataset] = now
	s.wasLive[dataset] = true
	s.mu.Unlock()
}

// release undoes one acquire. When the last local reference drops, the
// grace clock starts (unless a RefSource still reports live jobs).
func (s *SharedCache) release(dataset string) {
	now := s.nowNS()
	s.mu.Lock()
	if s.local[dataset] > 0 {
		s.local[dataset]--
	}
	if s.local[dataset] == 0 {
		s.lastLive[dataset] = now
		s.wasLive[dataset] = false
	}
	s.mu.Unlock()
}

// cold reports whether the dataset is eviction-preferred: refcount zero
// for longer than the grace period. The grace clock starts when the zero
// is first *observed* — a lease that expired while nobody looked is only
// discovered here, and the grace window must run from that discovery so
// a restarting trainer still finds its working set cached.
//
// Only "is anyone live" matters, so a peer of the dataset joined in this
// process settles it, and the RefSource — a registry List and a decode of
// every job record — is asked only when none is.
func (s *SharedCache) cold(dataset string) bool {
	nowNS := s.nowNS()
	s.mu.Lock()
	live := s.local[dataset] > 0
	src := s.src
	s.mu.Unlock()
	if live || (src != nil && src.Refcount(dataset) > 0) {
		s.mu.Lock()
		s.lastLive[dataset] = nowNS
		s.wasLive[dataset] = true
		s.mu.Unlock()
		return false
	}
	s.mu.Lock()
	last, seen := s.lastLive[dataset]
	if !seen || s.wasLive[dataset] {
		// First observation at zero — ever, or since the dataset was last
		// seen live: (re)start the grace clock here.
		s.lastLive[dataset] = nowNS
		s.wasLive[dataset] = false
		last = nowNS
	}
	s.mu.Unlock()
	return nowNS-last > s.grace.Nanoseconds()
}

// Bytes reports the cached payload bytes across all datasets.
func (s *SharedCache) Bytes() int64 { return s.store.Bytes() }

// Chunks reports how many chunks the cache holds across all datasets.
func (s *SharedCache) Chunks() int { return s.store.Count() }

// inflightTable deduplicates concurrent loads of the same (dataset,
// chunk) key, so two jobs missing on the same chunk of one SharedCache at
// the same moment still cost exactly one server fetch.
type inflightTable struct {
	mu sync.Mutex
	m  map[string]*inflightLoad
}

// do runs fn unless a call for key is already running, in which case it
// waits for that call and returns its result — the error included, so a
// failure costs one attempt however many callers were blocked on it. A
// waiter whose own context ends stops waiting; the running call goes on.
func (t *inflightTable) do(ctx context.Context, key string, fn func() ([]byte, error)) ([]byte, error) {
	t.mu.Lock()
	fl, running := t.m[key]
	if !running {
		fl = &inflightLoad{done: make(chan struct{})}
		t.m[key] = fl
	}
	t.mu.Unlock()
	if running {
		select {
		case <-fl.done:
			return fl.payload, fl.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	fl.payload, fl.err = fn()
	t.mu.Lock()
	delete(t.m, key)
	t.mu.Unlock()
	close(fl.done)
	return fl.payload, fl.err
}
