package server

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"time"

	"diesel/internal/chunk"
	"diesel/internal/etcd"
	"diesel/internal/kvstore"
	"diesel/internal/objstore"
	"diesel/internal/obs"
	"diesel/internal/wire"
)

// RPC method names of the DIESEL server protocol.
const (
	MethodIngest        = "dsl.ingest"
	MethodGet           = "dsl.get"
	MethodGetBatch      = "dsl.getBatch"
	MethodGetChunk      = "dsl.getChunk"
	MethodStat          = "dsl.stat"
	MethodList          = "dsl.ls"
	MethodDatasetRecord = "dsl.dsrec"
	MethodSnapshot      = "dsl.snapshot"
	MethodDelete        = "dsl.delete"
	MethodPurge         = "dsl.purge"
	MethodDeleteDataset = "dsl.deleteDataset"
	MethodRecover       = "dsl.recover"

	// Job-registry methods (multi-job serving plane). A server with the
	// registry off (no EnableJobs) answers them with an error, which
	// clients treat as "registry unavailable" rather than a failure.
	MethodJobRegister   = "dsl.jobRegister"
	MethodJobHeartbeat  = "dsl.jobHeartbeat"
	MethodJobUnregister = "dsl.jobUnregister"
	MethodJobs          = "dsl.jobs"

	// Admin methods: live retuning of the fair gate and tenant quotas
	// without a restart (`dlcmd admin set-weight|set-quota`).
	MethodAdminSetWeight = "dsl.adminSetWeight"
	MethodAdminSetQuota  = "dsl.adminSetQuota"
)

// RPCServer exposes a Server over the wire protocol: the process a DLT
// cluster admin deploys (cmd/diesel-server).
type RPCServer struct {
	S    *Server
	mu   sync.Mutex // guards rpc across Restart
	rpc  *wire.Server
	addr string
}

// purgeIDs mints the chunk IDs of every purge in this process. A
// generator's IDs are unique only among its own (its machine and process
// fields are this process's), so in-process servers that purge one
// dataset in the same second must share one.
var purgeIDs = sync.OnceValue(func() *chunk.IDGenerator {
	return chunk.NewIDGenerator(func() uint32 { return uint32(time.Now().Unix()) })
})

// NewRPC wraps s and binds it to addr.
func NewRPC(s *Server, addr string) (*RPCServer, error) {
	r := &RPCServer{
		S:   s,
		rpc: wire.NewServer(),
	}
	r.register()
	bound, err := r.rpc.Listen(addr)
	if err != nil {
		return nil, err
	}
	r.addr = bound
	return r, nil
}

// Addr returns the bound address.
func (r *RPCServer) Addr() string { return r.addr }

// cur returns the live wire server (it is swapped by Restart).
func (r *RPCServer) cur() *wire.Server {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rpc
}

// Requests returns the number of RPCs served. Restart resets the count.
func (r *RPCServer) Requests() uint64 { return r.cur().Stats.Requests.Load() }

// Close stops serving.
func (r *RPCServer) Close() error { return r.cur().Close() }

// Restart re-binds a Closed server on its original address. DIESEL
// servers are stateless (the KV cluster and object store hold all
// state), so a Close/Restart pair is exactly a server-process kill and
// redeploy: clients fail over to their remaining servers during the
// window and their pools redial this one when it returns.
func (r *RPCServer) Restart() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rpc.Close() // no-op when already closed
	r.rpc = wire.NewServer()
	r.register()
	_, err := r.rpc.Listen(r.addr)
	return err
}

// NewLocalStack builds a complete single-process DIESEL server over an
// in-memory KV backend and object store — the fixture tests, benchmarks
// and the quickstart example share. Jobs are enabled over an embedded
// registry so clients can register/heartbeat out of the box.
func NewLocalStack() *Server {
	s := New(kvstore.NewLocal(), objstore.NewMemory(), func() int64 { return time.Now().UnixNano() })
	s.EnableJobs(etcd.InProcess{R: etcd.NewRegistry()}, 0)
	return s
}

func (r *RPCServer) register() {
	// The one handler that keeps its request: the chunk is stored as the
	// window of the request payload it arrived as.
	r.rpc.HandleOwned(MethodIngest, func(p []byte) ([]byte, error) {
		d := wire.NewDecoder(p)
		dataset := d.String()
		blob := d.Bytes32()
		if err := d.Err(); err != nil {
			return nil, err
		}
		h, err := r.S.Ingest(dataset, blob)
		if err != nil {
			return nil, err
		}
		e := wire.NewEncoder(32)
		e.String(h.ID.String())
		e.Uint32(uint32(len(h.Entries)))
		return e.Bytes(), nil
	})

	r.rpc.HandleReply(MethodGet, func(ctx context.Context, p []byte, reply *wire.Reply) error {
		d := wire.NewDecoder(p)
		dataset := d.String()
		path := d.String()
		if err := d.Err(); err != nil {
			return err
		}
		tenant, exit, err := r.admitRead(ctx)
		if err != nil {
			return err
		}
		defer exit()
		b, release, err := r.S.GetFilePooled(ctx, dataset, path)
		if err != nil {
			return err
		}
		r.lendBytes32(reply, tenant, b, release)
		return nil
	})

	// A batch answers with a table and a body. The table, in the head, is
	// the file count, then per file a present flag and a length; the body is
	// the executor's one buffer, lent: the present files back to back in
	// request order.
	r.rpc.HandleReply(MethodGetBatch, func(ctx context.Context, p []byte, reply *wire.Reply) error {
		d := wire.NewDecoder(p)
		dataset := d.String()
		paths := d.StringSlice()
		if err := d.Err(); err != nil {
			return err
		}
		tenant, exit, err := r.admitRead(ctx)
		if err != nil {
			return err
		}
		defer exit()
		files, body, err := r.S.getFiles(ctx, dataset, paths)
		if err != nil {
			return err
		}
		reply.Head.Uint32(uint32(len(files)))
		for _, f := range files {
			reply.Head.Bool(f != nil)
			reply.Head.Uint32(uint32(len(f)))
		}
		reply.Lend(body, nil)
		r.S.chargeTenant(tenant, len(reply.Head.Bytes())+len(body))
		return nil
	})

	r.rpc.HandleReply(MethodGetChunk, func(ctx context.Context, p []byte, reply *wire.Reply) error {
		d := wire.NewDecoder(p)
		dataset := d.String()
		id := d.String()
		if err := d.Err(); err != nil {
			return err
		}
		tenant, exit, err := r.admitRead(ctx)
		if err != nil {
			return err
		}
		defer exit()
		b, release, err := r.S.GetChunkPooled(ctx, dataset, id)
		if err != nil {
			return err
		}
		r.lendBytes32(reply, tenant, b, release)
		return nil
	})

	r.registerJobs()
	r.registerAdmin()

	r.rpc.HandleReply(MethodStat, func(ctx context.Context, p []byte, reply *wire.Reply) error {
		d := wire.NewDecoder(p)
		dataset := d.String()
		path := d.String()
		if err := d.Err(); err != nil {
			return err
		}
		fr, err := r.S.StatContext(ctx, dataset, path)
		if err != nil {
			return err
		}
		reply.Lend(fr.Encode(), nil)
		return nil
	})

	// A listing is one directory of the committed view at the dataset's
	// current stamp: the cached view while the stamp holds, else one
	// rebuilt, O(files).
	r.rpc.Handle(MethodList, func(p []byte) ([]byte, error) {
		d := wire.NewDecoder(p)
		dataset := d.String()
		dir := d.String()
		if err := d.Err(); err != nil {
			return nil, err
		}
		v, err := r.S.viewOf(dataset)
		if err != nil {
			return nil, err
		}
		ents, err := v.snap.List(dir)
		if err != nil {
			return nil, err
		}
		e := wire.NewEncoder(256)
		e.Uint32(uint32(len(ents)))
		for _, ent := range ents {
			e.String(ent.Name)
			e.Bool(ent.IsDir)
			e.Uint64(ent.Size)
		}
		return e.Bytes(), nil
	})

	r.rpc.Handle(MethodDatasetRecord, func(p []byte) ([]byte, error) {
		d := wire.NewDecoder(p)
		dataset := d.String()
		if err := d.Err(); err != nil {
			return nil, err
		}
		rec, err := r.S.datasetRecord(dataset)
		if err != nil {
			return nil, err
		}
		return rec.Encode(), nil
	})

	// Every response lends the view's one encoding: Handle's result goes
	// out uncopied (Reply.Lend), and the encoding never changes.
	r.rpc.Handle(MethodSnapshot, func(p []byte) ([]byte, error) {
		d := wire.NewDecoder(p)
		dataset := d.String()
		if err := d.Err(); err != nil {
			return nil, err
		}
		v, err := r.S.viewOf(dataset)
		if err != nil {
			return nil, err
		}
		return v.encode(), nil
	})

	r.rpc.Handle(MethodDelete, func(p []byte) ([]byte, error) {
		d := wire.NewDecoder(p)
		dataset := d.String()
		path := d.String()
		if err := d.Err(); err != nil {
			return nil, err
		}
		return nil, r.S.deleteFile(dataset, path)
	})

	r.rpc.Handle(MethodPurge, func(p []byte) ([]byte, error) {
		d := wire.NewDecoder(p)
		dataset := d.String()
		if err := d.Err(); err != nil {
			return nil, err
		}
		st, err := r.S.purge(dataset, purgeIDs())
		if err != nil {
			return nil, err
		}
		e := wire.NewEncoder(32)
		e.Uint64(uint64(st.ChunksRewritten))
		e.Uint64(st.BytesReclaimed)
		e.Uint64(uint64(st.FilesCarried))
		return e.Bytes(), nil
	})

	r.rpc.Handle(MethodDeleteDataset, func(p []byte) ([]byte, error) {
		d := wire.NewDecoder(p)
		dataset := d.String()
		if err := d.Err(); err != nil {
			return nil, err
		}
		return nil, r.S.DeleteDataset(dataset)
	})

	r.rpc.Handle(MethodRecover, func(p []byte) ([]byte, error) {
		d := wire.NewDecoder(p)
		dataset := d.String()
		fromSec := d.Uint32()
		if err := d.Err(); err != nil {
			return nil, err
		}
		st, err := r.S.RecoverMetadata(dataset, fromSec)
		if err != nil {
			return nil, err
		}
		e := wire.NewEncoder(32)
		e.Uint64(uint64(st.ChunksScanned))
		e.Uint64(uint64(st.ChunksSkipped))
		e.Uint64(uint64(st.PairsWritten))
		return e.Bytes(), nil
	})
}

// lendBytes32 answers with b as Encoder.Bytes32 would lay it out — length
// prefix in the head, b itself lent as the body, so the store's bytes go
// to the wire uncopied and release runs once they are written — and bills
// the response to tenant.
func (r *RPCServer) lendBytes32(reply *wire.Reply, tenant string, b []byte, release func()) {
	reply.Head.Uint32(uint32(len(b)))
	reply.Lend(b, release)
	r.S.chargeTenant(tenant, 4+len(b))
}

// registerAdmin installs the live-retuning methods. Both take effect on
// the next admission decision and publish an "admin-retune" event so a
// later diagnostic bundle shows when an operator moved the knobs.
func (r *RPCServer) registerAdmin() {
	r.rpc.Handle(MethodAdminSetWeight, func(p []byte) ([]byte, error) {
		d := wire.NewDecoder(p)
		job := d.String()
		w := d.Float64()
		if err := d.Err(); err != nil {
			return nil, err
		}
		if job == "" {
			return nil, errors.New("server: adminSetWeight: empty job id")
		}
		if w <= 0 || w != w {
			return nil, errors.New("server: adminSetWeight: weight must be > 0")
		}
		r.S.Fair.setWeight(job, w)
		obs.Publish("admin-retune", "fair-share weight changed",
			"job", job, "weight", strconv.FormatFloat(w, 'g', -1, 64))
		return nil, nil
	})

	r.rpc.Handle(MethodAdminSetQuota, func(p []byte) ([]byte, error) {
		d := wire.NewDecoder(p)
		tenant := d.String()
		q := TenantQuota{QPS: d.Float64(), BytesPerSec: d.Float64()}
		if err := d.Err(); err != nil {
			return nil, err
		}
		if tenant == "" {
			return nil, errors.New("server: adminSetQuota: empty tenant")
		}
		if q.QPS < 0 || q.BytesPerSec < 0 || q.QPS != q.QPS || q.BytesPerSec != q.BytesPerSec {
			return nil, errors.New("server: adminSetQuota: limits must be >= 0")
		}
		r.S.SetTenantQuota(tenant, q)
		obs.Publish("admin-retune", "tenant quota changed",
			"tenant", tenant,
			"qps", strconv.FormatFloat(q.QPS, 'g', -1, 64),
			"bytes_per_sec", strconv.FormatFloat(q.BytesPerSec, 'g', -1, 64))
		return nil, nil
	})
}

// admitRead runs a read request through the tenant quota gate and the
// weighted-fair dispatch gate, using the job identity the connection
// announced (anonymous otherwise). It returns the billing tenant and the
// gate-exit function the handler must defer.
func (r *RPCServer) admitRead(ctx context.Context) (string, func(), error) {
	job, _ := wire.JobFromContext(ctx)
	tenant := job.Tenant
	if tenant == "" {
		tenant = AnonTenant
	}
	if err := r.S.admitTenant(tenant); err != nil {
		return "", nil, err
	}
	jobID := job.ID
	if jobID == "" {
		jobID = AnonTenant
	}
	exit, err := r.S.Fair.enter(ctx, jobID)
	if err != nil {
		return "", nil, err
	}
	return tenant, exit, nil
}

// jobRegistry returns the attached registry or an error for the client.
func (r *RPCServer) jobRegistry() (*JobRegistry, error) {
	if reg := r.S.JobRegistry(); reg != nil {
		return reg, nil
	}
	return nil, errors.New("server: job registry disabled")
}

// registerJobs installs the dsl.job* methods of the multi-job plane.
func (r *RPCServer) registerJobs() {
	r.rpc.HandleReply(MethodJobRegister, func(ctx context.Context, p []byte, reply *wire.Reply) error {
		reg, err := r.jobRegistry()
		if err != nil {
			return err
		}
		d := wire.NewDecoder(p)
		j := JobInfo{
			ID:      d.String(),
			Dataset: d.String(),
			Tenant:  d.String(),
			Rank:    int(d.Uint32()),
		}
		if err := d.Err(); err != nil {
			return err
		}
		if j.ID == "" {
			// Fall back to the connection identity so bare tools can
			// register with just a wire identity configured.
			if wj, ok := wire.JobFromContext(ctx); ok {
				j.ID, j.Tenant, j.Dataset, j.Rank = wj.ID, wj.Tenant, wj.Dataset, wj.Rank
			}
		}
		if err := reg.Register(j); err != nil {
			return err
		}
		reply.Head.Int64(reg.ttl.Nanoseconds())
		return nil
	})

	r.rpc.Handle(MethodJobHeartbeat, func(p []byte) ([]byte, error) {
		reg, err := r.jobRegistry()
		if err != nil {
			return nil, err
		}
		d := wire.NewDecoder(p)
		id := d.String()
		if err := d.Err(); err != nil {
			return nil, err
		}
		mJobHeartbeats.Inc()
		return nil, reg.heartbeat(id)
	})

	r.rpc.Handle(MethodJobUnregister, func(p []byte) ([]byte, error) {
		reg, err := r.jobRegistry()
		if err != nil {
			return nil, err
		}
		d := wire.NewDecoder(p)
		id := d.String()
		if err := d.Err(); err != nil {
			return nil, err
		}
		return nil, reg.Unregister(id)
	})

	r.rpc.Handle(MethodJobs, func(p []byte) ([]byte, error) {
		reg, err := r.jobRegistry()
		if err != nil {
			return nil, err
		}
		jobs, err := reg.Jobs()
		if err != nil {
			return nil, err
		}
		e := wire.NewEncoder(64 * len(jobs))
		e.Uint32(uint32(len(jobs)))
		for _, j := range jobs {
			e.String(j.ID)
			e.String(j.Dataset)
			e.String(j.Tenant)
			e.Uint32(uint32(j.Rank))
			e.Int64(j.RegisteredNS)
			e.Int64(j.HeartbeatNS)
		}
		return e.Bytes(), nil
	})
}
