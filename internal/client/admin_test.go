package client

import (
	"strings"
	"testing"

	"diesel/internal/server"
)

func TestAdminRetuning(t *testing.T) {
	core := server.NewLocalStack()
	rpc, err := server.NewRPC(core, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewRPC: %v", err)
	}
	defer rpc.Close()

	if err := AdminSetWeight(rpc.Addr(), "job-a", 4); err != nil {
		t.Fatalf("AdminSetWeight: %v", err)
	}
	if got := core.Fair.Weight("job-a"); got != 4 {
		t.Fatalf("Fair.Weight(job-a) = %v, want 4", got)
	}

	want := server.TenantQuota{QPS: 123, BytesPerSec: 1 << 20}
	if err := AdminSetQuota(rpc.Addr(), "alice", want); err != nil {
		t.Fatalf("AdminSetQuota: %v", err)
	}
	if got, ok := core.TenantQuotaOf("alice"); !ok || got != want {
		t.Fatalf("TenantQuotaOf(alice) = %+v, %v; want %+v", got, ok, want)
	}

	// Replacing a quota takes effect in place.
	want2 := server.TenantQuota{QPS: 7}
	if err := AdminSetQuota(rpc.Addr(), "alice", want2); err != nil {
		t.Fatalf("AdminSetQuota (replace): %v", err)
	}
	if got, _ := core.TenantQuotaOf("alice"); got != want2 {
		t.Fatalf("replaced quota = %+v, want %+v", got, want2)
	}
}

func TestAdminValidation(t *testing.T) {
	core := server.NewLocalStack()
	rpc, err := server.NewRPC(core, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewRPC: %v", err)
	}
	defer rpc.Close()

	if err := AdminSetWeight(rpc.Addr(), "", 2); err == nil ||
		!strings.Contains(err.Error(), "empty job") {
		t.Fatalf("empty job accepted: %v", err)
	}
	if err := AdminSetWeight(rpc.Addr(), "j", -1); err == nil ||
		!strings.Contains(err.Error(), "weight") {
		t.Fatalf("negative weight accepted: %v", err)
	}
	if err := AdminSetQuota(rpc.Addr(), "", server.TenantQuota{}); err == nil ||
		!strings.Contains(err.Error(), "empty tenant") {
		t.Fatalf("empty tenant accepted: %v", err)
	}
	if err := AdminSetQuota(rpc.Addr(), "t", server.TenantQuota{QPS: -5}); err == nil ||
		!strings.Contains(err.Error(), ">= 0") {
		t.Fatalf("negative qps accepted: %v", err)
	}
}
