package server

import (
	"context"
	"errors"
	"testing"
	"time"

	"diesel/internal/etcd"
	"diesel/internal/kvstore"
	"diesel/internal/objstore"
)

// testRegistry builds a registry over a fresh in-process store with a
// manually stepped clock.
func testRegistry(ttl time.Duration) (*JobRegistry, *int64) {
	now := int64(1_000_000_000)
	r := NewJobRegistry(etcd.InProcess{R: etcd.NewRegistry()}, ttl, func() int64 { return now })
	return r, &now
}

func TestJobRegistryLifecycle(t *testing.T) {
	r, now := testRegistry(10 * time.Second)

	for _, j := range []JobInfo{
		{ID: "j1", Dataset: "imagenet", Tenant: "alice", Rank: 0},
		{ID: "j2", Dataset: "imagenet", Tenant: "bob", Rank: 0},
		{ID: "j3", Dataset: "coco", Tenant: "alice", Rank: 1},
	} {
		if err := r.Register(j); err != nil {
			t.Fatalf("register %s: %v", j.ID, err)
		}
	}
	if err := r.Register(JobInfo{Dataset: "x"}); err == nil {
		t.Fatal("register with empty ID should fail")
	}

	jobs, err := r.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("roster: got %d jobs, want 3", len(jobs))
	}
	if got := r.Refcount("imagenet"); got != 2 {
		t.Fatalf("Refcount(imagenet) = %d, want 2", got)
	}
	if got := r.Refcount("coco"); got != 1 {
		t.Fatalf("Refcount(coco) = %d, want 1", got)
	}
	if got := r.Refcount("nosuch"); got != 0 {
		t.Fatalf("Refcount(nosuch) = %d, want 0", got)
	}

	// Re-registering a live job must keep its original RegisteredNS (a
	// reconnecting trainer is the same job, not a new one).
	reg0 := jobs[0].RegisteredNS
	*now += int64(time.Second)
	if err := r.Register(JobInfo{ID: "j1", Dataset: "imagenet", Tenant: "alice"}); err != nil {
		t.Fatal(err)
	}
	jobs, _ = r.Jobs()
	for _, j := range jobs {
		if j.ID == "j1" && j.RegisteredNS != reg0 {
			t.Fatalf("live re-register reset RegisteredNS: %d -> %d", reg0, j.RegisteredNS)
		}
	}

	if err := r.Unregister("j3"); err != nil {
		t.Fatal(err)
	}
	if got := r.Refcount("coco"); got != 0 {
		t.Fatalf("Refcount(coco) after unregister = %d, want 0", got)
	}
}

// TestJobLeaseExpiry is the crashed-trainer scenario: heartbeats stop,
// the lease lapses, the job drops out of the roster and its dataset's
// refcount falls — the signal the shared cache's eviction preference
// keys off.
func TestJobLeaseExpiry(t *testing.T) {
	const ttl = 10 * time.Second
	r, now := testRegistry(ttl)

	if err := r.Register(JobInfo{ID: "crash", Dataset: "imagenet"}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(JobInfo{ID: "alive", Dataset: "imagenet"}); err != nil {
		t.Fatal(err)
	}

	// Half a TTL in, only "alive" heartbeats.
	*now += int64(ttl / 2)
	if err := r.heartbeat("alive"); err != nil {
		t.Fatal(err)
	}

	// Past "crash"'s lease, inside "alive"'s.
	*now += int64(ttl)
	jobs, err := r.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != "alive" {
		t.Fatalf("roster after expiry: %+v, want just alive", jobs)
	}
	if got := r.Refcount("imagenet"); got != 1 {
		t.Fatalf("Refcount after expiry = %d, want 1", got)
	}

	// A late heartbeat from the crashed job must NOT resurrect the lease:
	// the client is told to re-register instead.
	if err := r.heartbeat("crash"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("heartbeat on expired lease: %v, want ErrUnknownJob", err)
	}

	// The sweep deletes the stale record from the store.
	if n, err := r.expireStale(); err != nil || n != 1 {
		t.Fatalf("expireStale = (%d, %v), want (1, nil)", n, err)
	}
	if _, err := r.store.Get("jobs/crash"); !errors.Is(err, etcd.ErrNotFound) {
		t.Fatalf("stale record after sweep: err=%v, want ErrNotFound", err)
	}

	// Re-registration after expiry is a fresh job.
	if err := r.Register(JobInfo{ID: "crash", Dataset: "imagenet"}); err != nil {
		t.Fatal(err)
	}
	if got := r.Refcount("imagenet"); got != 2 {
		t.Fatalf("Refcount after re-register = %d, want 2", got)
	}
}

func TestTenantQuotaQPS(t *testing.T) {
	s, _, _, _ := testStack()
	s.SetTenantQuota("alice", TenantQuota{QPS: 2})

	rej0 := tenantCounter(&tenantRejected, "alice", "diesel_tenant_rejected_total", "").Load()
	adm0 := tenantCounter(&tenantAdmitted, "alice", "diesel_tenant_admitted_total", "").Load()

	// The bucket starts full at one burst (2 ops); the test clock steps
	// nanoseconds, so refill is negligible.
	if err := s.admitTenant("alice"); err != nil {
		t.Fatalf("first admit: %v", err)
	}
	if err := s.admitTenant("alice"); err != nil {
		t.Fatalf("second admit: %v", err)
	}
	if err := s.admitTenant("alice"); !errors.Is(err, ErrOverQuota) {
		t.Fatalf("third admit: %v, want ErrOverQuota", err)
	}

	// The rejection is observable through the diesel_tenant_* family.
	if got := tenantCounter(&tenantRejected, "alice", "diesel_tenant_rejected_total", "").Load() - rej0; got != 1 {
		t.Fatalf("diesel_tenant_rejected_total delta = %d, want 1", got)
	}
	if got := tenantCounter(&tenantAdmitted, "alice", "diesel_tenant_admitted_total", "").Load() - adm0; got != 2 {
		t.Fatalf("diesel_tenant_admitted_total delta = %d, want 2", got)
	}

	// Unquota'd tenants ride the free path.
	for range 100 {
		if err := s.admitTenant(AnonTenant); err != nil {
			t.Fatalf("anon admit: %v", err)
		}
	}
}

func TestTenantQuotaByteDebt(t *testing.T) {
	now := int64(1_000_000_000)
	s := New(kvstore.NewLocal(), objstore.NewMemory(), func() int64 { return now })
	s.SetTenantQuota("bob", TenantQuota{BytesPerSec: 1000})

	if err := s.admitTenant("bob"); err != nil {
		t.Fatal(err)
	}
	// An oversized read puts the bucket into debt; the next admission
	// bounces until the debt drains at BytesPerSec.
	s.chargeTenant("bob", 2500)
	if err := s.admitTenant("bob"); !errors.Is(err, ErrOverQuota) {
		t.Fatalf("admit in debt: %v, want ErrOverQuota", err)
	}
	now += int64(2 * time.Second) // drains 2000 of the 1500 net debt
	if err := s.admitTenant("bob"); err != nil {
		t.Fatalf("admit after drain: %v", err)
	}
}

func TestFairGateOpenAndBounded(t *testing.T) {
	var g FairGate

	// Zero value: open gate, releases are no-ops.
	rel, err := g.enter(context.Background(), "j1")
	if err != nil {
		t.Fatal(err)
	}
	rel()

	g.SetLimit(1)
	g.setWeight("heavy", 4)
	rel1, err := g.enter(context.Background(), "j1")
	if err != nil {
		t.Fatal(err)
	}
	// Saturated: a second entrant with a dead context gives up cleanly.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.enter(ctx, "j2"); !errors.Is(err, context.Canceled) {
		t.Fatalf("enter on saturated gate with cancelled ctx: %v", err)
	}
	// A queued waiter is dispatched by the release.
	done := make(chan struct{})
	go func() {
		rel2, err := g.enter(context.Background(), "j2")
		if err == nil {
			rel2()
		}
		close(done)
	}()
	rel1()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("queued waiter never dispatched after release")
	}
}
