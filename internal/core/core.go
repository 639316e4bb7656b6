// Package core assembles complete DIESEL deployments: the KV metadata
// cluster, the object store, the configuration registry and one or more
// DIESEL servers, wired exactly as in Figure 2 of the paper, plus helpers
// that stand up a whole DLT task (libDIESEL clients with a task-grained
// distributed cache across simulated nodes).
//
// Examples, the command-line tools and the benchmarks all build their
// stacks through this package, so the topology logic lives in one place.
package core

import (
	"errors"
	"fmt"
	"net"
	"time"

	"diesel/internal/client"
	"diesel/internal/dcache"
	"diesel/internal/etcd"
	"diesel/internal/kvstore"
	"diesel/internal/objstore"
	"diesel/internal/obs"
	"diesel/internal/server"
)

// Config describes a deployment.
type Config struct {
	// KVNodes is the number of metadata key-value nodes (the paper runs a
	// 16-instance Redis cluster; tests typically use 2–4). Default 2.
	KVNodes int
	// DieselServers is the number of DIESEL server processes sharing the
	// backend (the paper evaluates 1, 3 and 5). Default 1.
	DieselServers int
	// ObjStoreDir, when non-empty, stores chunks on disk under this
	// directory; otherwise chunks live in memory.
	ObjStoreDir string
	// SSDCacheBytes, when positive, layers a fast LRU tier of this
	// capacity over the chunk store — the server-side HDD/SSD cache of
	// Figure 4.
	SSDCacheBytes int64
	// Throttle, when non-nil, wraps the slow tier with modeled latency
	// and bandwidth so examples show tiering effects in real time.
	Throttle *objstore.Throttled
}

// Deployment is a running DIESEL stack.
type Deployment struct {
	kvServers []*kvstore.Server
	kvCluster *kvstore.Cluster
	registry  *etcd.Server
	servers   []*server.RPCServer
	objects   objstore.Store
	tiered    *objstore.Tiered
	jobs      *server.JobRegistry
}

// Deploy starts all components on loopback ephemeral ports.
func Deploy(cfg Config) (*Deployment, error) {
	if cfg.KVNodes < 1 {
		cfg.KVNodes = 2
	}
	if cfg.DieselServers < 1 {
		cfg.DieselServers = 1
	}
	d := &Deployment{}
	fail := func(err error) (*Deployment, error) {
		d.Close()
		return nil, err
	}

	// Metadata KV cluster.
	addrs := make([]string, cfg.KVNodes)
	for i := range cfg.KVNodes {
		s, err := kvstore.NewServer("127.0.0.1:0")
		if err != nil {
			return fail(fmt.Errorf("core: kv node %d: %w", i, err))
		}
		d.kvServers = append(d.kvServers, s)
		addrs[i] = s.Addr()
	}
	kvc, err := kvstore.DialCluster(addrs, 2)
	if err != nil {
		return fail(err)
	}
	d.kvCluster = kvc

	// Object storage, optionally tiered.
	var objects objstore.Store
	if cfg.ObjStoreDir != "" {
		disk, err := objstore.NewDisk(cfg.ObjStoreDir)
		if err != nil {
			return fail(err)
		}
		objects = disk
	} else {
		objects = objstore.NewMemory()
	}
	if cfg.Throttle != nil {
		cfg.Throttle.Base = objects
		objects = cfg.Throttle
	}
	if cfg.SSDCacheBytes > 0 {
		d.tiered = objstore.NewTiered(nil, objects, cfg.SSDCacheBytes)
		// The diesel_tier_*{site="objstore"} series attach here, not in
		// every binary: anything that deploys through core scrapes them.
		d.tiered.RegisterMetrics(obs.Default())
		objects = d.tiered
	}
	d.objects = objects

	// Registry.
	reg, err := etcd.NewServer("127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	d.registry = reg

	// DIESEL servers (stateless; they share the KV cluster and store).
	// The shared core carries one job registry backed by the deployment's
	// configuration registry, so every server RPC front-end sees the same
	// roster — jobs register through any server and appear on all.
	core := server.New(kvc, objects, func() int64 { return time.Now().UnixNano() })
	d.jobs = core.EnableJobs(etcd.InProcess{R: reg.Registry()}, 0)
	d.jobs.StartSweeper(0)
	for i := range cfg.DieselServers {
		rpc, err := server.NewRPC(core, "127.0.0.1:0")
		if err != nil {
			return fail(fmt.Errorf("core: diesel server %d: %w", i, err))
		}
		d.servers = append(d.servers, rpc)
	}
	return d, nil
}

// ServerAddrs returns the DIESEL server addresses.
func (d *Deployment) ServerAddrs() []string {
	out := make([]string, len(d.servers))
	for i, s := range d.servers {
		out[i] = s.Addr()
	}
	return out
}

// RegistryAddr returns the configuration registry's address.
func (d *Deployment) RegistryAddr() string { return d.registry.Addr() }

// Server returns the first DIESEL server's core, for administrative
// operations in tests and tools.
func (d *Deployment) Server() *server.Server { return d.servers[0].S }

// JobRegistry returns the deployment-wide job roster.
func (d *Deployment) JobRegistry() *server.JobRegistry { return d.jobs }

// Servers returns the DIESEL RPC servers (for scripted kill/restart
// fault windows in the load harness).
func (d *Deployment) Servers() []*server.RPCServer { return d.servers }

// KVCluster returns the metadata cluster client (for failure injection
// and inspection).
func (d *Deployment) KVCluster() *kvstore.Cluster { return d.kvCluster }

// KVServers returns the metadata nodes (for failure injection).
func (d *Deployment) KVServers() []*kvstore.Server { return d.kvServers }

// NewClient opens a libDIESEL context against this deployment.
func (d *Deployment) NewClient(dataset string, rank int) (*client.Client, error) {
	return client.Connect(client.Options{
		User: "core", Key: "core",
		Servers: d.ServerAddrs(),
		Dataset: dataset,
		Rank:    rank,
	})
}

// Task is a DLT task: clients spread over simulated nodes with the
// task-grained distributed cache joined.
type Task struct {
	Clients []*client.Client
	Peers   []*dcache.Peer
}

// TaskConfig lays out a DLT task.
type TaskConfig struct {
	Dataset        string
	Nodes          int // simulated physical nodes
	ClientsPerNode int // I/O processes per node
	Policy         dcache.Policy
	// JobID registers the task as a training job in the server's job
	// registry (every client connection carries the identity, rank 0
	// heartbeats the lease). Empty means anonymous. It also keys the
	// task's cache membership, so two jobs may share one dataset.
	JobID string
	// Tenant attributes the task's traffic for per-tenant quotas.
	Tenant string
	// Shared, when non-nil, is the chunk cache this task's masters cache
	// into — its capacity bounds them, its EnableSpill gives them a
	// local-SSD spill tier — and the deployment's job registry becomes its
	// refcount source; see dcache.SharedCache. Nil gives each master an
	// unbounded cache of its own.
	Shared *dcache.SharedCache
	// Dialer, when non-nil, replaces the TCP dialer of every task
	// client's server connections (fault injection).
	Dialer func(addr string) (net.Conn, error)
}

// StartTask downloads the dataset's snapshot into every client, joins the
// distributed cache (one master per node, Figure 7), and installs the
// cache as each client's reader.
func (d *Deployment) StartTask(cfg TaskConfig) (*Task, error) {
	if cfg.Nodes < 1 || cfg.ClientsPerNode < 1 {
		return nil, errors.New("core: task needs at least one node and one client")
	}
	total := cfg.Nodes * cfg.ClientsPerNode
	t := &Task{}
	reg := etcd.InProcess{R: d.registry.Registry()}
	// Task identity must be unique per job: two jobs training on the same
	// dataset are distinct tasks (own barriers, own master elections) even
	// when they share a chunk cache.
	taskID := "task-" + cfg.Dataset
	if cfg.JobID != "" {
		taskID = "task-" + cfg.JobID
	}
	if cfg.Shared != nil && d.jobs != nil {
		cfg.Shared.SetRefSource(d.jobs)
	}

	type result struct {
		rank int
		peer *dcache.Peer
		err  error
	}
	results := make(chan result, total)
	for rank := range total {
		cl, err := client.Connect(client.Options{
			User: "core", Key: "core",
			Servers: d.ServerAddrs(),
			Dataset: cfg.Dataset,
			JobID:   cfg.JobID,
			Tenant:  cfg.Tenant,
			Rank:    rank,
			Dialer:  cfg.Dialer,
		})
		if err != nil {
			t.Close()
			return nil, err
		}
		if _, err := cl.DefaultDataset().DownloadSnapshot(); err != nil {
			cl.Close()
			t.Close()
			return nil, err
		}
		t.Clients = append(t.Clients, cl)
		node := fmt.Sprintf("node%03d", rank/cfg.ClientsPerNode)
		go func(rank int, cl *client.Client) {
			p, err := dcache.Join(cl.DefaultDataset(), reg, dcache.Config{
				TaskID:       taskID,
				NodeID:       node,
				Rank:         rank,
				TotalClients: total,
				Policy:       cfg.Policy,
				Shared:       cfg.Shared,
			})
			results <- result{rank: rank, peer: p, err: err}
		}(rank, cl)
	}
	t.Peers = make([]*dcache.Peer, total)
	for range total {
		r := <-results
		if r.err != nil {
			t.Close()
			return nil, fmt.Errorf("core: join rank %d: %w", r.rank, r.err)
		}
		t.Peers[r.rank] = r.peer
		t.Clients[r.rank].DefaultDataset().SetReader(r.peer)
	}
	return t, nil
}

// Close shuts the task's peers and clients down.
func (t *Task) Close() {
	for _, p := range t.Peers {
		if p != nil {
			p.Close()
		}
	}
	for _, c := range t.Clients {
		if c != nil {
			c.Close()
		}
	}
}

// Close tears the deployment down in dependency order.
func (d *Deployment) Close() {
	if d.jobs != nil {
		d.jobs.StopSweeper()
	}
	for _, s := range d.servers {
		s.Close()
	}
	if d.tiered != nil {
		d.tiered.Close()
	}
	if d.registry != nil {
		d.registry.Close()
	}
	if d.kvCluster != nil {
		d.kvCluster.Close()
	}
	for _, s := range d.kvServers {
		s.Close()
	}
}
