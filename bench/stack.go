package main

import (
	"fmt"
	"time"

	"diesel/internal/client"
	"diesel/internal/etcd"
	"diesel/internal/kvstore"
	"diesel/internal/objstore"
	"diesel/internal/server"
)

const (
	kvNodes      = 2
	dieselSrvs   = 2
	connsPerSrv  = 2 // = nproc on the reference box: at most nproc connections per server
	chunkTarget  = 256 << 10
	groupSize    = 4
	epochWindow  = 2
	srcParallel  = 2
	slowLatency  = time.Millisecond
	fastTierFrac = 4 // fast tier / shared cache hold 1/4 of the dataset
)

// stack is one loopback deployment, assembled from the layers' own
// constructors as core.Deploy does, with the bench's seams at the
// interfaces between them.
type stack struct {
	kvServers []*kvstore.Server
	kv        *kvstore.Cluster
	base      *objstore.Memory // where chunks finally live
	objects   objstore.Store   // what the server is given: the seam over base or over Tiered
	tiered    *objstore.Tiered // nil unless the workload models a disk
	disk      *objstore.Throttled
	registry  *etcd.Server
	core      *server.Server
	jobs      *server.JobRegistry
	rpcs      []*server.RPCServer
}

// deploy starts kvnodes, the object store (with a Tiered fast tier over a
// 1 ms Throttled disk when fastBytes > 0), the registry and the servers.
// A nil recorder leaves the seams out: the bare stack the transparency
// test compares against.
func deploy(rec *recorder, fastBytes int64) (*stack, error) {
	s := &stack{}
	fail := func(err error) (*stack, error) {
		s.close()
		return nil, err
	}
	addrs := make([]string, kvNodes)
	for i := range addrs {
		n, err := kvstore.NewServer("127.0.0.1:0")
		if err != nil {
			return fail(fmt.Errorf("kv node %d: %w", i, err))
		}
		s.kvServers = append(s.kvServers, n)
		addrs[i] = n.Addr()
	}
	kv, err := kvstore.DialCluster(addrs, connsPerSrv)
	if err != nil {
		return fail(err)
	}
	s.kv = kv

	s.base = objstore.NewMemory()
	var objects objstore.Store = s.base
	var backend server.Backend = kv
	if fastBytes > 0 {
		s.disk = &objstore.Throttled{Base: s.base, Latency: slowLatency}
		var slow objstore.Store = s.disk
		if rec != nil {
			slow = &storeSeam{inner: slow, rec: rec, base: kSlowGet}
		}
		s.tiered = objstore.NewTiered(objstore.NewMemory(), slow, fastBytes)
		objects = s.tiered
	}
	if rec != nil {
		objects = &storeSeam{inner: objects, rec: rec, base: kObjGet, count: true}
		backend = &backendSeam{kv: kv, rec: rec}
	}
	s.objects = objects

	reg, err := etcd.NewServer("127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	s.registry = reg

	s.core = server.New(backend, objects,
		func() int64 { return time.Now().UnixNano() })
	s.jobs = s.core.EnableJobs(etcd.InProcess{R: reg.Registry()}, 0)
	s.jobs.StartSweeper(0)
	for i := range dieselSrvs {
		rpc, err := server.NewRPC(s.core, "127.0.0.1:0")
		if err != nil {
			return fail(fmt.Errorf("diesel server %d: %w", i, err))
		}
		s.rpcs = append(s.rpcs, rpc)
	}
	return s, nil
}

func (s *stack) addrs() []string {
	out := make([]string, len(s.rpcs))
	for i, r := range s.rpcs {
		out[i] = r.Addr()
	}
	return out
}

func (s *stack) connect(dataset string, rank int, job, tenant string) (*client.Client, error) {
	return client.Connect(client.Options{
		User: "bench", Key: "bench",
		Servers: s.addrs(), Dataset: dataset,
		ChunkTarget: chunkTarget, ConnsPerServer: connsPerSrv,
		Rank: rank, JobID: job, Tenant: tenant,
	})
}

// close tears down in dependency order (as core.Deployment.Close).
func (s *stack) close() {
	if s.jobs != nil {
		s.jobs.StopSweeper()
	}
	for _, r := range s.rpcs {
		r.Close()
	}
	if s.tiered != nil {
		s.tiered.Close()
	}
	if s.registry != nil {
		s.registry.Close()
	}
	if s.kv != nil {
		s.kv.Close()
	}
	for _, n := range s.kvServers {
		n.Close()
	}
}

// ingestResult times the write path of one dataset load.
type ingestResult struct {
	files    int
	putTime  time.Duration // inside Put, including the chunk ships it triggers
	flushes  []float64     // explicit Flush calls, ms
	duration time.Duration // Put + Flush
}

func (r ingestResult) filesPerS() float64 { return float64(r.files) / r.duration.Seconds() }

// ingest writes all of d through one client handle.
func ingest(ds *client.Dataset, d *dataset) (ingestResult, error) {
	res := ingestResult{files: d.files()}
	start := time.Now()
	for i := range d.paths {
		if err := ds.Put(d.paths[i], d.file(i)); err != nil {
			return res, fmt.Errorf("put %s: %w", d.paths[i], err)
		}
	}
	res.putTime = time.Since(start)
	f0 := time.Now()
	if err := ds.Flush(); err != nil {
		return res, fmt.Errorf("flush: %w", err)
	}
	res.flushes = append(res.flushes, float64(time.Since(f0))/1e6)
	res.duration = time.Since(start)
	return res, nil
}

// load ingests all of d over a fresh writer connection.
func (s *stack) load(d *dataset) (ingestResult, error) {
	w, err := s.connect(d.name, 0, "", "")
	if err != nil {
		return ingestResult{}, err
	}
	defer w.Close()
	return ingest(w.DefaultDataset(), d)
}

// storedBytes returns what set-up left in the object store and the
// metadata store, for space_amp.
func (s *stack) storedBytes() (obj, kv int64, err error) {
	keys, err := s.base.List("")
	if err != nil {
		return 0, 0, err
	}
	for _, k := range keys {
		n, err := s.base.Size(k)
		if err != nil {
			return 0, 0, err
		}
		obj += n
	}
	for _, n := range s.kvServers {
		ks, vs := n.Store().ScanPrefix("")
		for i := range ks {
			kv += int64(len(ks[i]) + len(vs[i]))
		}
	}
	return obj, kv, nil
}
