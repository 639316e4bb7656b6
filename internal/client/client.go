// Package client implements libDIESEL, the client library of Table 3 in
// the paper. A Client is the "libDIESEL context" returned by DL_connect:
// it owns the connection pools, retry policy and job identity, and hands
// out Dataset handles. A Dataset handle aggregates written files into
// ≥4 MB chunks before shipping them to a DIESEL server (Figure 3),
// downloads and interprets metadata snapshots so every metadata operation
// after load is local (§4.1.3), reads files directly or through a
// pluggable reader (the task-grained distributed cache of §4.2 plugs in
// there), and generates chunk-wise shuffled plans (§4.3).
//
// Paper API ↔ methods (dataset operations live on the Dataset handle):
//
//	DL_connect    Connect (returns the connection; Dataset opens handles)
//	DL_put        Dataset.Put
//	DL_flush      Dataset.Flush
//	DL_get        Dataset.Get
//	DL_stat       Dataset.Stat
//	DL_delete     Dataset.Delete
//	DL_ls         Dataset.Ls
//	DL_save_meta  Dataset.SaveMeta
//	DL_load_meta  Dataset.LoadMeta
//	DL_shuffle    Dataset.ShufflePlan (chunk-wise shuffled epoch plan)
//	DL_close      Close
//	DL_purge      Dataset.Purge
//	DL_delete_dataset Dataset.DeleteDataset
//
// When Options.JobID is set the connection carries a job identity: every
// wire connection announces {job, tenant, dataset, rank} to the server as
// its first frame, Connect registers the job in the server's job registry
// and heartbeats it in the background so the lease outlives request gaps,
// and Close unregisters it. Servers use the identity for per-tenant
// admission control, weighted-fair dispatch and shared-cache refcounts.
package client

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"diesel/internal/chunk"
	"diesel/internal/meta"
	"diesel/internal/obs"
	"diesel/internal/server"
	"diesel/internal/wire"
)

// Options configures Connect.
type Options struct {
	// User and Key are the credentials of DL_connect. The reproduction
	// performs no real authentication; they are carried for API fidelity.
	User, Key string
	// Servers lists DIESEL server addresses; requests round-robin across
	// them (the paper runs 1, 3 or 5 interchangeable servers).
	Servers []string
	// Dataset is the default dataset of this connection: Connect opens a
	// handle on it (DefaultDataset), and a job registration binds to it.
	// Further handles come from Client.Dataset.
	Dataset string
	// JobID, when non-empty, registers this connection as a training job
	// in the server's job registry: the identity rides every wire
	// connection, a background heartbeat keeps the job's lease alive, and
	// the server derives shared-cache refcounts and fair-share weights
	// from the roster. Empty means anonymous (admin tools, old callers).
	JobID string
	// Tenant attributes this connection's traffic for per-tenant quota
	// admission and the diesel_tenant_* metric families. Empty traffic is
	// attributed to the server's anonymous tenant.
	Tenant string
	// ChunkTarget is the chunk payload size for writes; 0 means the 4 MB
	// default.
	ChunkTarget int
	// ConnsPerServer sizes each server's connection pool (default 2).
	ConnsPerServer int
	// Rank identifies this client among the task's I/O workers; the
	// distributed cache elects the smallest rank per node as master.
	Rank int
	// CallTimeout bounds every RPC round trip; 0 disables deadlines. A
	// hung server then fails calls instead of wedging the training loop.
	CallTimeout time.Duration
	// MaxRetries is how many extra attempts every call makes after a
	// transport failure, each against the next server in the round-robin.
	// Writes retry too: each server operation is finished by running it
	// again (a flush re-sends its chunk under the same ID), so an attempt
	// that landed before its answer was lost is not applied twice. A
	// retried Delete whose first attempt landed answers ErrNoSuchFile.
	// Default 2; negative disables retries.
	MaxRetries int
	// RetryBackoff is the base delay between attempts, doubled per retry
	// with ±50% jitter (default 10ms, capped at 100×base).
	RetryBackoff time.Duration
	// Dialer, when non-nil, replaces the TCP dialer for every server
	// connection. The load harness uses it to interpose a wire.FaultGate
	// so scripted network-fault windows hit live connections.
	Dialer func(addr string) (net.Conn, error)
}

// Reader intercepts file reads. The task-grained distributed cache
// (*dcache.Peer) implements it; when set, Get routes through it instead of
// the server, and the caller's context — the epoch reader's deadlines and
// cancellation — reaches the cache's peer RPCs.
type Reader interface {
	ReadFileContext(ctx context.Context, path string) ([]byte, error)
}

// Client is a libDIESEL connection: transport (pools, retries), job
// identity, and a cache of Dataset handles. All methods are safe for
// concurrent use.
type Client struct {
	opts  Options
	pools []*wire.Pool
	next  atomic.Uint64

	handlesMu sync.Mutex
	handles   map[string]*Dataset
	def       *Dataset // handle on Options.Dataset

	// Job lease machinery (nil/zero when Options.JobID is empty or the
	// server runs without a job registry).
	jobTTL atomic.Int64 // lease in ns, as reported by the server
	hbStop chan struct{}
	hbDone chan struct{}

	// Stats counts client-side operations for experiments.
	Stats ClientStats
}

// ClientStats are monotonic operation counters (obs counters: the same
// Add/Load shape as atomic.Uint64). Retries are the process-wide
// diesel_client_retries_total (metrics.go).
type ClientStats struct {
	Gets          obs.Counter // files read
	ServerMetaOps obs.Counter // metadata ops that hit the server, not the snapshot
}

// ErrNoSnapshot is returned by operations that need a loaded snapshot.
var ErrNoSnapshot = errors.New("client: no metadata snapshot loaded")

// ErrNoDataset is returned by Connect when Options.Dataset is empty:
// DIESEL is dataset-based, and a connection without a default dataset has
// nothing for DefaultDataset or the job registration to bind to.
var ErrNoDataset = errors.New("client: Options.Dataset is empty")

// Connect dials the DIESEL servers and returns a connection (DL_connect)
// with a handle open on Options.Dataset. With Options.JobID set it also
// registers the job in the server's registry and starts the lease
// heartbeat; against a server without a registry the connection degrades
// gracefully to an anonymous one.
func Connect(opts Options) (*Client, error) {
	if opts.Dataset == "" {
		return nil, ErrNoDataset
	}
	if len(opts.Servers) == 0 {
		return nil, errors.New("client: no servers configured")
	}
	if err := meta.ValidDataset(opts.Dataset); err != nil {
		return nil, err
	}
	if opts.ConnsPerServer < 1 {
		opts.ConnsPerServer = 2
	}
	if opts.MaxRetries == 0 {
		opts.MaxRetries = 2
	} else if opts.MaxRetries < 0 {
		opts.MaxRetries = 0
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 10 * time.Millisecond
	}
	c := &Client{opts: opts, handles: make(map[string]*Dataset)}
	dialOpts := []wire.Option{wire.WithCallTimeout(opts.CallTimeout)}
	if opts.Dialer != nil {
		dialOpts = append(dialOpts, wire.WithDialer(opts.Dialer))
	}
	if opts.JobID != "" || opts.Tenant != "" {
		// Every connection this client opens — redials included —
		// announces the identity as its first frame, so the server can
		// attribute each request to a job and tenant without per-request
		// overhead.
		dialOpts = append(dialOpts, wire.WithJobIdentity(wire.JobIdentity{
			ID:      opts.JobID,
			Tenant:  opts.Tenant,
			Dataset: opts.Dataset,
			Rank:    opts.Rank,
		}))
	}
	for _, addr := range opts.Servers {
		p, err := wire.DialPool(addr, opts.ConnsPerServer, dialOpts...)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("client: connect %s: %w", addr, err)
		}
		c.pools = append(c.pools, p)
	}
	def, err := c.Dataset(opts.Dataset)
	if err != nil {
		c.Close()
		return nil, err
	}
	c.def = def
	if opts.JobID != "" {
		c.startJob()
	}
	return c, nil
}

// Dataset returns a handle on the named dataset, opening one on first
// use. Handles are cached per name, so concurrent callers share builder
// and snapshot state for the same dataset.
func (c *Client) Dataset(name string) (*Dataset, error) {
	if err := meta.ValidDataset(name); err != nil {
		return nil, err
	}
	c.handlesMu.Lock()
	defer c.handlesMu.Unlock()
	if d, ok := c.handles[name]; ok {
		return d, nil
	}
	gen := chunk.NewIDGeneratorAt(clientMachineID(c.opts.Rank), clientPID(), func() uint32 {
		return uint32(nowNS() / 1e9)
	})
	d := &Dataset{
		c:       c,
		name:    name,
		builder: chunk.NewBuilder(c.opts.ChunkTarget, gen, nowNS),
	}
	c.handles[name] = d
	return d, nil
}

// nowNS stamps chunk IDs and chunk headers.
func nowNS() int64 { return time.Now().UnixNano() }

// --- job lease ---

// startJob registers the job and starts the heartbeat loop. A server
// without a job registry answers with a RemoteError; the client then runs
// anonymously rather than failing Connect.
func (c *Client) startJob() {
	ttl, err := c.registerJob()
	if err != nil {
		return
	}
	c.jobTTL.Store(int64(ttl))
	c.hbStop = make(chan struct{})
	c.hbDone = make(chan struct{})
	go c.heartbeatLoop()
}

// registerJob performs the dsl.jobRegister RPC and returns the lease TTL
// the server granted.
func (c *Client) registerJob() (time.Duration, error) {
	e := wire.NewEncoder(64)
	e.String(c.opts.JobID)
	e.String(c.opts.Dataset)
	e.String(c.opts.Tenant)
	e.Uint32(uint32(c.opts.Rank))
	resp, err := c.callIdem(context.Background(), server.MethodJobRegister, e.Bytes(), nil)
	if err != nil {
		return 0, err
	}
	d := wire.NewDecoder(resp)
	ttl := time.Duration(d.Int64())
	if err := d.Err(); err != nil {
		return 0, err
	}
	if ttl <= 0 {
		return 0, fmt.Errorf("client: register job: server granted no lease")
	}
	return ttl, nil
}

// heartbeatLoop refreshes the job lease at TTL/3 — two chances to land a
// beat before the lease lapses. A server that answers "unknown job" (our
// lease expired while we were partitioned, or the registry restarted)
// gets a fresh registration instead of a resurrection-by-heartbeat.
func (c *Client) heartbeatLoop() {
	defer close(c.hbDone)
	interval := time.Duration(c.jobTTL.Load()) / 3
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.hbStop:
			return
		case <-t.C:
			e := wire.NewEncoder(32)
			e.String(c.opts.JobID)
			_, err := c.callIdem(context.Background(), server.MethodJobHeartbeat, e.Bytes(), nil)
			if err != nil && wire.IsRemote(err) && strings.Contains(err.Error(), "unknown job") {
				_, _ = c.registerJob()
			}
		}
	}
}

// stopJob halts the heartbeat loop and unregisters the job (best effort:
// if the server is gone the lease expires on its own, which is the whole
// point of leases).
func (c *Client) stopJob() {
	if c.hbStop == nil {
		return
	}
	close(c.hbStop)
	<-c.hbDone
	c.hbStop = nil
	e := wire.NewEncoder(32)
	e.String(c.opts.JobID)
	_, _ = c.callIdem(context.Background(), server.MethodJobUnregister, e.Bytes(), nil)
}

// clientInstances numbers every Client created in this process; the
// instance number is folded into the chunk-ID process field alongside the
// OS pid so that many contexts in one process stay disjoint.
var clientInstances atomic.Uint32

// clientMachineID builds the chunk-ID machine field for one client
// context: two rank bytes for debuggability plus four bytes of fresh
// randomness. Rank alone is NOT unique — separate processes (separate
// DLCMD invocations, separate training jobs) routinely share rank 0, and
// the object store refuses a chunk whose ID is taken (objstore.ErrExists),
// failing the later writer's flush. The random bytes make every context's
// ID space disjoint with overwhelming probability, mirroring how the
// paper's MAC-address field separates physical machines.
func clientMachineID(rank int) [6]byte {
	var m [6]byte
	m[0] = byte(rank >> 8)
	m[1] = byte(rank)
	rand.Read(m[2:])
	return m
}

// clientPID builds the 24-bit chunk-ID process field: the OS pid's low
// 16 bits plus this context's in-process instance number.
func clientPID() uint32 {
	return uint32(os.Getpid()&0xFFFF)<<8 | (clientInstances.Add(1) & 0xFF)
}

// nextPool picks the next server's pool, round-robin.
func (c *Client) nextPool() *wire.Pool {
	return c.pools[c.next.Add(1)%uint64(len(c.pools))]
}

// callIdem is every call's path: wire.Retry around a round-robin pick, so
// each retry lands on the next server — the paper's interchangeable-
// servers property is what makes this safe and useful, and every server
// operation is idempotent in the sense that matters: run again, it
// finishes what an earlier run started. The request is payload followed
// by lent, which goes to the socket from where it lies (wire's
// CallLendContext). The response payload is the caller's for good: an
// allocation of its exact size that the read paths hand out windows into.
func (c *Client) callIdem(ctx context.Context, method string, payload, lent []byte) ([]byte, error) {
	resp, attempts, err := wire.Retry(ctx, c.opts.MaxRetries, c.opts.RetryBackoff, mRetries.Inc,
		func() ([]byte, error) { return c.nextPool().CallLendContext(ctx, method, payload, lent) })
	if err != nil && !wire.IsRemote(err) {
		err = fmt.Errorf("client: %s failed after %d attempts: %w", method, attempts, err)
	}
	return resp, err
}

// Rank returns the client's rank among the task's I/O workers.
func (c *Client) Rank() int { return c.opts.Rank }

// DefaultDataset returns the handle Connect opened on Options.Dataset.
func (c *Client) DefaultDataset() *Dataset { return c.def }

// JobID returns the job identity this connection registered under, or ""
// for anonymous connections.
func (c *Client) JobID() string { return c.opts.JobID }

// StatInfo is the result of Stat (DL_stat): size plus upload time.
type StatInfo struct {
	Size      uint64
	UpdatedNS int64
	ChunkID   string
}

// Entry is one row of an Ls result.
type Entry struct {
	Name  string
	IsDir bool
	Size  uint64
}

// Close flushes buffered writes on every open handle, unregisters the
// job, and tears down connections (DL_close).
func (c *Client) Close() error {
	c.stopJob()
	var first error
	c.handlesMu.Lock()
	handles := make([]*Dataset, 0, len(c.handles))
	for _, d := range c.handles {
		handles = append(handles, d)
	}
	c.handlesMu.Unlock()
	for _, d := range handles {
		if err := d.Flush(); err != nil && first == nil {
			first = err
		}
	}
	for _, p := range c.pools {
		if err := p.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
