package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"diesel/internal/etcd"
	"diesel/internal/wire"
)

// jobKeyPrefix namespaces job records in the registry store, next to the
// dcache membership keys ("dcache/...") that already live there.
const jobKeyPrefix = "jobs/"

// DefaultJobTTL is the lease: a job whose last heartbeat is older than
// this is considered dead and its resources (dataset refcounts, quota
// attribution) are released by the sweeper.
const DefaultJobTTL = 10 * time.Second

// ErrUnknownJob is returned by heartbeat when the job's lease has already
// expired (or it never registered); the client reacts by re-registering.
var ErrUnknownJob = errors.New("server: unknown job (lease expired?)")

// JobStore is the slice of the etcd registry surface the job registry
// needs. Both etcd.InProcess and *etcd.Client satisfy it, so the roster
// can live in an embedded registry or a shared networked one.
type JobStore interface {
	Put(key string, value []byte) (uint64, error)
	Get(key string) (etcd.Entry, error)
	Delete(key string) (bool, error)
	List(prefix string) ([]etcd.Entry, error)
}

// JobInfo is one registered training job: what `dlcmd jobs` and
// /debug/jobs list, and what dataset refcounts are derived from.
type JobInfo struct {
	ID      string
	Dataset string
	Tenant  string
	Rank    int

	RegisteredNS int64
	HeartbeatNS  int64
}

// expired reports whether the job's lease has lapsed at nowNS.
func (j JobInfo) expired(nowNS int64, ttl time.Duration) bool {
	return nowNS-j.HeartbeatNS > ttl.Nanoseconds()
}

func (j JobInfo) encode() []byte {
	e := wire.NewEncoder(len(j.ID) + len(j.Dataset) + len(j.Tenant) + 40)
	e.String(j.ID)
	e.String(j.Dataset)
	e.String(j.Tenant)
	e.Uint32(uint32(j.Rank))
	e.Int64(j.RegisteredNS)
	e.Int64(j.HeartbeatNS)
	return e.Bytes()
}

func decodeJobInfo(p []byte) (JobInfo, error) {
	d := wire.NewDecoder(p)
	j := JobInfo{
		ID:      d.String(),
		Dataset: d.String(),
		Tenant:  d.String(),
		Rank:    int(d.Uint32()),
	}
	j.RegisteredNS = d.Int64()
	j.HeartbeatNS = d.Int64()
	return j, d.Err()
}

// JobRegistry tracks live training jobs in an etcd-backed store. It is
// deliberately stateless between calls (every read goes to the store), so
// multiple DIESEL servers sharing one registry see one roster, exactly
// like the dcache membership keys. Leases are soft-state: a job stays in
// the roster until its heartbeat goes stale for TTL, after which Jobs()
// hides it and the sweeper deletes it.
type JobRegistry struct {
	store JobStore
	ttl   time.Duration
	nowNS func() int64

	sweepMu   sync.Mutex
	sweepStop chan struct{}
}

// NewJobRegistry builds a registry over store. ttl <= 0 uses
// DefaultJobTTL; nowNS nil uses the wall clock.
func NewJobRegistry(store JobStore, ttl time.Duration, nowNS func() int64) *JobRegistry {
	if ttl <= 0 {
		ttl = DefaultJobTTL
	}
	if nowNS == nil {
		nowNS = func() int64 { return time.Now().UnixNano() }
	}
	return &JobRegistry{store: store, ttl: ttl, nowNS: nowNS}
}

// Register records (or refreshes) a job. The registration timestamp is
// preserved across re-registration of the same job ID so roster listings
// show when the job first appeared.
func (r *JobRegistry) Register(j JobInfo) error {
	if j.ID == "" {
		return fmt.Errorf("server: register job: empty job ID")
	}
	now := r.nowNS()
	j.HeartbeatNS = now
	j.RegisteredNS = now
	if ent, err := r.store.Get(jobKeyPrefix + j.ID); err == nil {
		if old, derr := decodeJobInfo(ent.Value); derr == nil && !old.expired(now, r.ttl) {
			j.RegisteredNS = old.RegisteredNS
		}
	}
	if _, err := r.store.Put(jobKeyPrefix+j.ID, j.encode()); err != nil {
		return err
	}
	mJobRegistered.Inc()
	return nil
}

// heartbeat refreshes the job's lease. A heartbeat for a job the store no
// longer holds — or whose lease already lapsed — returns ErrUnknownJob so
// the client re-registers instead of silently resurrecting stale state.
func (r *JobRegistry) heartbeat(id string) error {
	ent, err := r.store.Get(jobKeyPrefix + id)
	if err != nil {
		if errors.Is(err, etcd.ErrNotFound) {
			return ErrUnknownJob
		}
		return err
	}
	j, err := decodeJobInfo(ent.Value)
	if err != nil {
		return err
	}
	now := r.nowNS()
	if j.expired(now, r.ttl) {
		return ErrUnknownJob
	}
	j.HeartbeatNS = now
	_, err = r.store.Put(jobKeyPrefix+id, j.encode())
	return err
}

// Unregister removes the job immediately (clean shutdown path).
func (r *JobRegistry) Unregister(id string) error {
	_, err := r.store.Delete(jobKeyPrefix + id)
	return err
}

// Jobs returns the live roster, ordered by job ID (the store lists by
// key). Expired-but-unswept records are filtered out.
func (r *JobRegistry) Jobs() ([]JobInfo, error) {
	ents, err := r.store.List(jobKeyPrefix)
	if err != nil {
		return nil, err
	}
	now := r.nowNS()
	out := make([]JobInfo, 0, len(ents))
	for _, ent := range ents {
		j, err := decodeJobInfo(ent.Value)
		if err != nil || j.expired(now, r.ttl) {
			continue
		}
		out = append(out, j)
	}
	return out, nil
}

// Refcount returns how many live jobs currently train on dataset. It is
// the dcache.RefSource hook: a dataset whose refcount is zero becomes
// eviction-preferred after a grace period. Store errors count as zero —
// an unreachable registry must never pin the cache.
func (r *JobRegistry) Refcount(dataset string) int {
	jobs, err := r.Jobs()
	if err != nil {
		return 0
	}
	n := 0
	for _, j := range jobs {
		if j.Dataset == dataset {
			n++
		}
	}
	return n
}

// expireStale deletes every job whose lease lapsed, returning how many it
// reclaimed. The sweeper calls it periodically; tests call it directly
// with an injected clock.
func (r *JobRegistry) expireStale() (int, error) {
	ents, err := r.store.List(jobKeyPrefix)
	if err != nil {
		return 0, err
	}
	now := r.nowNS()
	n := 0
	for _, ent := range ents {
		j, err := decodeJobInfo(ent.Value)
		if err == nil && !j.expired(now, r.ttl) {
			continue
		}
		if ok, err := r.store.Delete(ent.Key); err == nil && ok {
			n++
		}
	}
	if n > 0 {
		mJobExpired.Add(uint64(n))
	}
	return n, nil
}

// StartSweeper runs expireStale every `every` (TTL/2 when <= 0) until
// StopSweeper. Starting twice restarts the interval; both are safe to
// call on a registry whose sweeper never started.
func (r *JobRegistry) StartSweeper(every time.Duration) {
	if every <= 0 {
		every = r.ttl / 2
	}
	r.sweepMu.Lock()
	defer r.sweepMu.Unlock()
	if r.sweepStop != nil {
		close(r.sweepStop)
	}
	stop := make(chan struct{})
	r.sweepStop = stop
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				_, _ = r.expireStale()
			}
		}
	}()
}

// StopSweeper stops the background sweeper, if one is running.
func (r *JobRegistry) StopSweeper() {
	r.sweepMu.Lock()
	defer r.sweepMu.Unlock()
	if r.sweepStop != nil {
		close(r.sweepStop)
		r.sweepStop = nil
	}
}

// jobsView is the JSON shape /debug/jobs serves.
type jobsView struct {
	Jobs []jobView `json:"jobs"`
	// Datasets maps dataset name → live-job refcount, the numbers the
	// shared cache's eviction preference runs on.
	Datasets map[string]int `json:"datasets,omitempty"`
}

type jobView struct {
	ID         string  `json:"id"`
	Dataset    string  `json:"dataset"`
	Tenant     string  `json:"tenant"`
	Rank       int     `json:"rank"`
	AgeS       float64 `json:"age_s"`
	LastBeatS  float64 `json:"last_heartbeat_s"`
	LeaseLeftS float64 `json:"lease_left_s"`
}

// jobsError writes a JSON error body (the handler's success shape is
// JSON, so its errors are too — scrapers never need a second parser).
func jobsError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{msg})
}

// JobsHandler serves the live roster as JSON on /debug/jobs. With jobs
// disabled it answers 404 so dashboards can distinguish "off" from
// "empty"; ?id= narrows to one job (404 when it is not live). Errors are
// JSON with proper 4xx statuses.
func (s *Server) JobsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		for key := range q {
			if key != "id" {
				jobsError(w, http.StatusBadRequest, "unknown query parameter "+strconv.Quote(key))
				return
			}
		}
		if q.Has("id") && q.Get("id") == "" {
			jobsError(w, http.StatusBadRequest, "id needs a job id")
			return
		}
		reg := s.JobRegistry()
		if reg == nil {
			jobsError(w, http.StatusNotFound, "job registry disabled")
			return
		}
		jobs, err := reg.Jobs()
		if err != nil {
			jobsError(w, http.StatusInternalServerError, err.Error())
			return
		}
		if id := q.Get("id"); id != "" {
			var match []JobInfo
			for _, j := range jobs {
				if j.ID == id {
					match = append(match, j)
				}
			}
			if len(match) == 0 {
				jobsError(w, http.StatusNotFound, "no live job "+strconv.Quote(id))
				return
			}
			jobs = match
		}
		now := reg.nowNS()
		view := jobsView{Jobs: make([]jobView, 0, len(jobs)), Datasets: make(map[string]int)}
		for _, j := range jobs {
			view.Jobs = append(view.Jobs, jobView{
				ID:         j.ID,
				Dataset:    j.Dataset,
				Tenant:     j.Tenant,
				Rank:       j.Rank,
				AgeS:       float64(now-j.RegisteredNS) * 1e-9,
				LastBeatS:  float64(now-j.HeartbeatNS) * 1e-9,
				LeaseLeftS: (reg.ttl - time.Duration(now-j.HeartbeatNS)).Seconds(),
			})
			view.Datasets[j.Dataset]++
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(view)
	})
}
