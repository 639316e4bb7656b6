package client

import (
	"diesel/internal/server"
	"diesel/internal/wire"
)

// Admin helpers: one-shot calls to the server's live-retuning RPCs,
// shaped like ListJobs — they dial a single server address directly
// (no dataset handle needed, no call deadline) and are what `dlcmd admin`
// rides.

// AdminSetWeight sets a job's fair-share dispatch weight on the server
// at addr (takes effect on the next dispatch decision).
func AdminSetWeight(addr, job string, weight float64) error {
	wc, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer wc.Close()
	e := wire.NewEncoder(len(job) + 16)
	e.String(job)
	e.Float64(weight)
	_, err = wc.Call(server.MethodAdminSetWeight, e.Bytes())
	return err
}

// AdminSetQuota installs (or replaces) a tenant's admission quota on the
// server at addr. Zero limits leave that axis unlimited; an all-zero
// quota keeps the tenant accounted but unthrottled.
func AdminSetQuota(addr, tenant string, q server.TenantQuota) error {
	wc, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer wc.Close()
	e := wire.NewEncoder(len(tenant) + 24)
	e.String(tenant)
	e.Float64(q.QPS)
	e.Float64(q.BytesPerSec)
	_, err = wc.Call(server.MethodAdminSetQuota, e.Bytes())
	return err
}
