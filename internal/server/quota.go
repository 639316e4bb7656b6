package server

import (
	"errors"
	"sync"

	"diesel/internal/obs"
)

// TenantQuota bounds one tenant's read traffic. Zero fields mean
// unlimited on that axis; the zero value is therefore "no quota".
type TenantQuota struct {
	// QPS caps admitted read requests per second (token bucket with a
	// one-second burst).
	QPS float64
	// BytesPerSec caps served payload bytes per second. Bytes are charged
	// after the read (the server only knows the size then), so the bucket
	// may run into debt; admission blocks until the debt drains.
	BytesPerSec float64
}

// ErrOverQuota is returned to clients whose tenant exhausted its byte or
// QPS budget. It crosses the wire as a RemoteError carrying this text.
var ErrOverQuota = errors.New("server: tenant over quota")

// AnonTenant is the tenant that requests without a job identity (old
// clients, admin tools) are attributed to.
const AnonTenant = "anon"

// tenantBucket is the runtime state of one tenant's quota: two token
// buckets sharing a lock, refilled lazily from the server clock.
type tenantBucket struct {
	mu     sync.Mutex
	quota  TenantQuota
	ops    float64
	bytes  float64
	lastNS int64

	admitted *obs.Counter
	rejected *obs.Counter
}

// quotas holds the per-tenant buckets. Tenants without a configured quota
// have no bucket and skip admission entirely (the common, free path).
type quotas struct {
	mu sync.RWMutex
	m  map[string]*tenantBucket
}

// SetTenantQuota installs (or replaces) the quota for a tenant. A zero
// quota removes rate limits but keeps the tenant's traffic accounted
// under diesel_tenant_* metrics.
func (s *Server) SetTenantQuota(tenant string, q TenantQuota) {
	s.quotas.mu.Lock()
	defer s.quotas.mu.Unlock()
	if s.quotas.m == nil {
		s.quotas.m = make(map[string]*tenantBucket)
	}
	b, ok := s.quotas.m[tenant]
	if !ok {
		b = &tenantBucket{
			lastNS:   s.nowNS(),
			admitted: tenantCounter(&tenantAdmitted, tenant, "diesel_tenant_admitted_total", "Read requests admitted past the tenant quota gate."),
			rejected: tenantCounter(&tenantRejected, tenant, "diesel_tenant_rejected_total", "Read requests rejected by the tenant quota gate."),
		}
		s.quotas.m[tenant] = b
	}
	b.mu.Lock()
	b.quota = q
	// Start full on both axes so a fresh quota does not reject the first
	// burst it was sized for.
	b.ops = q.QPS
	b.bytes = q.BytesPerSec
	b.mu.Unlock()
}

// TenantQuotaOf returns the installed quota for tenant, reporting
// whether one exists — the read side of the admin retuning RPC.
func (s *Server) TenantQuotaOf(tenant string) (TenantQuota, bool) {
	b := s.bucketFor(tenant)
	if b == nil {
		return TenantQuota{}, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.quota, true
}

// bucketFor returns the tenant's bucket, or nil when the tenant has no
// configured quota.
func (s *Server) bucketFor(tenant string) *tenantBucket {
	s.quotas.mu.RLock()
	b := s.quotas.m[tenant]
	s.quotas.mu.RUnlock()
	return b
}

// admitTenant charges one read request against the tenant's quota,
// returning ErrOverQuota when either bucket is dry. Tenants without a
// quota are always admitted (and not counted — the per-tenant metric
// families exist only for governed tenants, keeping cardinality bounded).
func (s *Server) admitTenant(tenant string) error {
	b := s.bucketFor(tenant)
	if b == nil {
		return nil
	}
	now := s.nowNS()
	b.mu.Lock()
	b.refill(now)
	if b.quota.QPS > 0 && b.ops < 1 {
		b.mu.Unlock()
		b.rejected.Inc()
		return ErrOverQuota
	}
	if b.quota.BytesPerSec > 0 && b.bytes <= 0 {
		// Byte debt from earlier oversized reads has not drained yet.
		b.mu.Unlock()
		b.rejected.Inc()
		return ErrOverQuota
	}
	if b.quota.QPS > 0 {
		b.ops--
	}
	b.mu.Unlock()
	b.admitted.Inc()
	return nil
}

// chargeTenant debits served payload bytes post-read. Debt is allowed —
// one admitted read always completes — and throttles future admissions.
func (s *Server) chargeTenant(tenant string, n int) {
	b := s.bucketFor(tenant)
	if b == nil {
		return
	}
	b.mu.Lock()
	if b.quota.BytesPerSec > 0 {
		b.bytes -= float64(n)
	}
	b.mu.Unlock()
}

// refill tops the buckets up for the time elapsed since the last charge,
// capped at a one-second burst. Caller holds b.mu.
func (b *tenantBucket) refill(nowNS int64) {
	el := float64(nowNS-b.lastNS) * 1e-9
	if el <= 0 {
		return
	}
	b.lastNS = nowNS
	if b.quota.QPS > 0 {
		b.ops += el * b.quota.QPS
		if b.ops > b.quota.QPS {
			b.ops = b.quota.QPS
		}
	}
	if b.quota.BytesPerSec > 0 {
		b.bytes += el * b.quota.BytesPerSec
		if b.bytes > b.quota.BytesPerSec {
			b.bytes = b.quota.BytesPerSec
		}
	}
}

// Per-tenant counter caches (sync.Map so the hot path pays one lock-free
// load, same pattern as the wire layer's per-method histograms).
var (
	tenantAdmitted sync.Map
	tenantRejected sync.Map
)

func tenantCounter(cache *sync.Map, tenant, name, help string) *obs.Counter {
	if c, ok := cache.Load(tenant); ok {
		return c.(*obs.Counter)
	}
	c := obs.Default().Counter(name, help, obs.L("tenant", tenant))
	cache.Store(tenant, c)
	return c
}

// Job-registry counters (package-level: one registry per process in
// practice, and obs counters dedupe by name+labels anyway).
var (
	mJobRegistered = obs.Default().Counter("diesel_job_registered_total",
		"Job registrations accepted by the job registry.")
	mJobExpired = obs.Default().Counter("diesel_job_expired_total",
		"Jobs reclaimed by lease expiry (crashed or silent trainers).")
	mJobHeartbeats = obs.Default().Counter("diesel_job_heartbeats_total",
		"Job lease heartbeats processed.")
)
