package dcache

import (
	"context"
	"fmt"
	"sync"

	"diesel/internal/wire"
)

// Whole-chunk pulls: the remote branch of the read path at the granularity
// the data is stored in (§4.2–4.3).
//
// The first read of a remotely-owned chunk is a per-file cache.get. A
// second read of the same chunk among this peer's last sweepWindow
// chunks means a reader is sweeping it, and pulls the whole payload from
// the owning master with one cache.getChunk into the pulled buffer; every
// later file of that chunk is a view out of the buffer. A chunk-wise epoch
// therefore costs about two RPCs per remote chunk, while random access,
// which does not revisit a chunk within the window, keeps paying exactly
// one small RPC per file and moves no chunk it will not read.
//
// A spilled local chunk is read by the same rule (readLocal): a pread per
// file at first touch, one checksum-verified load of the whole chunk once
// it is being swept — into RAM while RAM has room, else into the pulled
// buffer, so a scan never churns the RAM LRU.
const (
	// sweepWindow is how many distinct chunks — remote, or local and not
	// in RAM — the detector remembers. It is below pulledChunks so a
	// chunk the buffer evicted needs two fresh per-file reads before it
	// is loaded again.
	sweepWindow = 8
	// pulledChunks bounds the pulled buffer in chunks, not bytes: what a
	// sweep has in flight is reader window × chunks per group, a
	// count, whatever the dataset's chunk size. The byte budget is this
	// many of the snapshot's largest chunk, capped at the cache's RAM
	// budget (Join).
	pulledChunks = 16
)

// sweepRing remembers the last sweepWindow distinct chunks read per file
// — remote ones, and local ones RAM did not hold — as chunk index + 1 so
// the zero value is an empty ring.
type sweepRing struct {
	mu     sync.Mutex
	recent [sweepWindow]int
	next   int
}

// seen reports whether chunk ci is among the recently read chunks,
// remembering it if not.
func (r *sweepRing) seen(ci int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.recent {
		if c == ci+1 {
			return true
		}
	}
	r.recent[r.next] = ci + 1
	r.next = (r.next + 1) % sweepWindow
	return false
}

// pullChunk fetches remote chunk ci whole from its owning master into the
// pulled buffer and returns the payload. Concurrent pulls of one chunk
// coalesce into one RPC under the fetcher's context, and that RPC records
// one outcome on the master's breaker — not one per waiter; waiters get
// the fetcher's result and, on failure, carry on per file.
func (p *Peer) pullChunk(ctx context.Context, owner, ci int) ([]byte, error) {
	key := p.storeKeys[ci]
	return p.shared.inflight.do(ctx, p.pullKey+key, func() ([]byte, error) {
		// A pull that finished between the caller's buffer miss and here
		// put its payload before it left the table. Not for a dead master:
		// this caller is then its revival probe and owes the breaker an
		// outcome, which only an RPC can give.
		if !p.health[owner].dead() {
			if payload, ok := p.pulled.Get(key); ok {
				return payload, nil
			}
		}
		payload, err := p.chunkFromMaster(ctx, p.masters[owner].addr, ci)
		p.noteMaster(ctx, owner, err)
		if err != nil {
			return nil, err
		}
		p.pulled.Put(key, payload, p.pulled.Gen(key), nil)
		return payload, nil
	})
}

// chunkFromMaster is one cache.getChunk RPC. The payload is the response
// body itself, which the wire read into a plain GC-owned slice of its exact
// size — so views into it survive the buffer evicting it.
func (p *Peer) chunkFromMaster(ctx context.Context, addr string, ci int) ([]byte, error) {
	e := wire.AcquireEncoder(4)
	e.Uint32(uint32(ci))
	return p.callMaster(ctx, addr, methodCacheGetChunk, e)
}

// handleCacheGetChunk serves one whole chunk payload out of this master's
// cache, loading it on demand like handleCacheGet. The response is the
// cached payload itself: read-only, lent to the wire and sent from where it
// lies.
func (p *Peer) handleCacheGetChunk(ctx context.Context, payload []byte, r *wire.Reply) error {
	d := wire.NewDecoder(payload)
	ci := int(d.Uint32())
	if err := d.Err(); err != nil {
		return err
	}
	if ci >= len(p.snap.Chunks) {
		return fmt.Errorf("dcache: chunk index %d outside the snapshot's %d chunks", ci, len(p.snap.Chunks))
	}
	b, err := p.loadChunk(ctx, ci)
	if err != nil {
		return err
	}
	r.Lend(b, nil)
	return nil
}
