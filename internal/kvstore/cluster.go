package kvstore

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"strconv"
	"sync"
	"time"

	"diesel/internal/tracing"
	"diesel/internal/wire"
)

// NumSlots is the size of the hash-slot space keys are sharded over,
// mirroring Redis cluster's 16384 slots.
const NumSlots = 16384

// slot maps a key to its hash slot: CRC-32 (IEEE) of the key, modulo
// NumSlots. The checksum is computed a byte at a time over the string —
// crc32.ChecksumIEEE wants a []byte, which is an allocation per key routed,
// and on keys of a few dozen bytes the table loop is as fast.
func slot(key string) int {
	crc := ^uint32(0)
	for i := 0; i < len(key); i++ {
		crc = crc32.IEEETable[byte(crc)^key[i]] ^ crc>>8
	}
	return int(^crc % NumSlots)
}

// Cluster is a client to a set of KV nodes. Slots are assigned to nodes in
// contiguous even ranges by node index. All methods are safe for
// concurrent use.
type Cluster struct {
	addrs []string
	opts  Options

	mu    sync.RWMutex
	pools []*wire.Pool
}

// Options tunes the cluster client's failure handling. The zero value
// gets the defaults noted per field.
type Options struct {
	// ConnsPerNode sizes each node's connection pool (default 2).
	ConnsPerNode int
	// CallTimeout bounds every RPC round trip; 0 disables deadlines. A
	// hung node then fails calls instead of wedging the caller.
	CallTimeout time.Duration
	// MaxRetries is how many extra attempts reads (Get, MGetContext,
	// ScanPrefix, DBSize) make after a transport failure. Writes (Set,
	// MSet, Del, FlushAll) never retry here: a blind Set of a dataset's
	// stamp retried after a later stamp landed would move the stamp
	// backwards. A server operation cut short by a failed write is run
	// again whole instead, which writes a fresh stamp. Default 2;
	// negative disables retries.
	MaxRetries int
	// RetryBackoff is the base delay between attempts, doubled per retry
	// with ±50% jitter (default 5ms, capped at 100×base).
	RetryBackoff time.Duration
}

func (o Options) withDefaults() Options {
	if o.ConnsPerNode < 1 {
		o.ConnsPerNode = 2
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 2
	} else if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 5 * time.Millisecond
	}
	return o
}

// DialCluster connects to the given node addresses with connsPerNode
// connections each and default failure handling. The address order
// defines the slot assignment, so all clients of one cluster must use the
// same order.
func DialCluster(addrs []string, connsPerNode int) (*Cluster, error) {
	return DialClusterOpts(addrs, Options{ConnsPerNode: connsPerNode})
}

// DialClusterOpts is DialCluster with explicit failure-handling options.
func DialClusterOpts(addrs []string, opts Options) (*Cluster, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("kvstore: empty cluster")
	}
	opts = opts.withDefaults()
	c := &Cluster{addrs: append([]string(nil), addrs...), opts: opts}
	c.pools = make([]*wire.Pool, len(addrs))
	for i, a := range addrs {
		p, err := wire.DialPool(a, opts.ConnsPerNode, wire.WithCallTimeout(opts.CallTimeout))
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("kvstore: dial node %d (%s): %w", i, a, err)
		}
		c.pools[i] = p
	}
	return c, nil
}

// callIdem is call under wire.Retry, for idempotent operations only.
func (c *Cluster) callIdem(ctx context.Context, n int, method string, payload []byte) ([]byte, error) {
	resp, attempts, err := wire.Retry(ctx, c.opts.MaxRetries, c.opts.RetryBackoff,
		func() { mRetries(method).Inc() },
		func() ([]byte, error) { return c.call(ctx, n, method, payload) })
	if err != nil && !wire.IsRemote(err) {
		err = fmt.Errorf("kvstore: node %d (%s) %s failed after %d attempts: %w",
			n, c.addrs[n], method, attempts, err)
	}
	return resp, err
}

// NodeCount returns the number of nodes in the cluster.
func (c *Cluster) NodeCount() int { return len(c.addrs) }

// nodeFor returns the pool index owning key's slot.
func (c *Cluster) nodeFor(key string) int {
	return slot(key) * len(c.addrs) / NumSlots
}

func (c *Cluster) pool(i int) *wire.Pool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.pools[i]
}

// Set stores value under key on the owning node.
func (c *Cluster) Set(key string, value []byte) error {
	e := wire.NewEncoder(len(key) + len(value) + 16)
	e.String(key)
	e.Bytes32(value)
	_, err := c.call(context.Background(), c.nodeFor(key), methodSet, e.Bytes())
	return err
}

// Get fetches key from the owning node. Missing keys return ErrNotFound.
func (c *Cluster) Get(key string) ([]byte, error) {
	return c.GetContext(context.Background(), key)
}

// GetContext is Get under the caller's context. Under a sampled trace the
// lookup appears as a kv.get span carrying the owning node's index, so a
// slow metadata probe is attributable to a specific node.
//
// The value is a window into the response, which is the caller's (wire's
// CallContext), capped so that an append to it reallocates.
func (c *Cluster) GetContext(ctx context.Context, key string) (val []byte, err error) {
	n := c.nodeFor(key)
	sp := tracing.ChildOf(ctx, "kv.get")
	if sp != nil {
		sp.SetAttr("node", strconv.Itoa(n))
		ctx = tracing.ContextWith(ctx, sp)
		defer func() { sp.SetError(err); sp.End() }()
	}
	e := wire.AcquireEncoder(len(key) + 4)
	e.String(key)
	resp, err := c.callIdem(ctx, n, methodGet, e.Bytes())
	e.Release()
	if err != nil {
		return nil, err
	}
	d := wire.NewDecoder(resp)
	ok := d.Bool()
	v := d.Bytes32()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if !ok {
		return nil, ErrNotFound
	}
	return v[:len(v):len(v)], nil
}

// KV is one key/value pair, the unit of batched writes.
type KV struct {
	Key   string
	Value []byte
}

// MSet writes a batch of pairs, grouping them by owning node so each node
// receives one RPC. This batching is why DIESEL's metadata ingest is fast:
// a chunk's worth of file metadata costs O(nodes) round trips, not O(files).
func (c *Cluster) MSet(pairs []KV) error {
	byNode := make(map[int][]KV)
	for _, kv := range pairs {
		n := c.nodeFor(kv.Key)
		byNode[n] = append(byNode[n], kv)
	}
	var (
		wg   sync.WaitGroup
		emu  sync.Mutex
		errs []error
	)
	for n, batch := range byNode {
		wg.Add(1)
		go func(n int, batch []KV) {
			defer wg.Done()
			e := wire.NewEncoder(1024)
			e.Uint32(uint32(len(batch)))
			for _, kv := range batch {
				e.String(kv.Key)
				e.Bytes32(kv.Value)
			}
			if _, err := c.call(context.Background(), n, methodMSet, e.Bytes()); err != nil {
				emu.Lock()
				errs = append(errs, fmt.Errorf("kvstore: mset on node %d: %w", n, err))
				emu.Unlock()
			}
		}(n, batch)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// MGetContext fetches many keys, grouped by node, under the caller's
// context. The result preserves input order; missing keys yield nil
// entries. The per-node fan-out is traced as sibling kv.mget spans — the
// paper's batched-stat path — so a sampled slow batch shows which node
// the caller actually waited on.
//
// Values are windows into the per-node responses, which are the caller's,
// each capped so that an append to it reallocates. The last node's call
// runs on the calling goroutine, the others beside it.
func (c *Cluster) MGetContext(ctx context.Context, keys []string) ([][]byte, error) {
	nodes := len(c.addrs)
	// owner[i] is key i's node; count[n] how many keys node n gets.
	owner := make([]int, len(keys)+nodes)
	owner, count := owner[:len(keys)], owner[len(keys):]
	last := 0
	for i, k := range keys {
		n := c.nodeFor(k)
		owner[i] = n
		count[n]++
		last = max(last, n)
	}
	out := make([][]byte, len(keys))
	errs := make([]error, nodes)
	fetch := func(n int) error {
		ctx := ctx
		sp := tracing.ChildOf(ctx, "kv.mget")
		if sp != nil {
			sp.SetAttr("node", strconv.Itoa(n))
			sp.SetAttr("keys", strconv.Itoa(count[n]))
			ctx = tracing.ContextWith(ctx, sp)
		}
		size := 4
		for i, k := range keys {
			if owner[i] == n {
				size += 4 + len(k)
			}
		}
		e := wire.AcquireEncoder(size)
		e.Uint32(uint32(count[n]))
		for i, k := range keys {
			if owner[i] == n {
				e.String(k)
			}
		}
		resp, err := c.callIdem(ctx, n, methodMGet, e.Bytes())
		e.Release()
		sp.SetError(err)
		sp.End()
		if err != nil {
			return err
		}
		d := wire.NewDecoder(resp)
		if cnt := int(d.Uint32()); cnt != count[n] {
			return fmt.Errorf("kvstore: mget count mismatch: %d vs %d", cnt, count[n])
		}
		for i := range keys {
			if owner[i] != n {
				continue
			}
			ok := d.Bool()
			v := d.Bytes32()
			if ok {
				out[i] = v[:len(v):len(v)]
			}
		}
		return d.Err()
	}
	var wg sync.WaitGroup
	for n := range last {
		if count[n] > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[n] = fetch(n)
			}()
		}
	}
	if len(keys) > 0 {
		errs[last] = fetch(last)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return out, nil
}

// Del removes key from its owning node, reporting whether it existed.
func (c *Cluster) Del(key string) (bool, error) {
	e := wire.NewEncoder(len(key) + 8)
	e.String(key)
	resp, err := c.call(context.Background(), c.nodeFor(key), methodDel, e.Bytes())
	if err != nil {
		return false, err
	}
	d := wire.NewDecoder(resp)
	return d.Bool(), d.Err()
}

// ScanPrefix fans the prefix scan out to every node and merges the results
// in ascending key order. Keys with one prefix live on many nodes (slots
// hash the full key), so readdir-style operations must touch the whole
// cluster — exactly the pressure metadata snapshots remove.
func (c *Cluster) ScanPrefix(prefix string) ([]KV, error) {
	e := wire.NewEncoder(len(prefix) + 8)
	e.String(prefix)
	req := e.Bytes()

	results := make([][]KV, len(c.addrs))
	var (
		wg   sync.WaitGroup
		emu  sync.Mutex
		errs []error
	)
	for n := range c.addrs {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			resp, err := c.callIdem(context.Background(), n, methodPScan, req)
			if err == nil {
				d := wire.NewDecoder(resp)
				cnt := int(d.Uint32())
				kvs := make([]KV, 0, cnt)
				for range cnt {
					k := d.String()
					v := append([]byte(nil), d.Bytes32()...)
					kvs = append(kvs, KV{k, v})
				}
				if err = d.Err(); err == nil {
					results[n] = kvs
					return
				}
			}
			emu.Lock()
			errs = append(errs, err)
			emu.Unlock()
		}(n)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	var merged []KV
	for _, r := range results {
		merged = append(merged, r...)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Key < merged[j].Key })
	return merged, nil
}

// FlushAll empties every node.
func (c *Cluster) FlushAll() error {
	for n := range c.addrs {
		if _, err := c.call(context.Background(), n, methodFlush, nil); err != nil {
			return err
		}
	}
	return nil
}

// DBSize returns the total key count across nodes.
func (c *Cluster) DBSize() (uint64, error) {
	var total uint64
	for n := range c.addrs {
		resp, err := c.callIdem(context.Background(), n, methodDBSize, nil)
		if err != nil {
			return 0, err
		}
		d := wire.NewDecoder(resp)
		total += d.Uint64()
		if err := d.Err(); err != nil {
			return 0, err
		}
	}
	return total, nil
}

// Close tears down all connections. It takes the pools lock, so it is
// safe against concurrent callers going through pool(i).
func (c *Cluster) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for _, p := range c.pools {
		if p == nil {
			continue
		}
		if err := p.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
