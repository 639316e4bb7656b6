package kvstore

import (
	"context"
	"strings"
	"sync"

	"diesel/internal/obs"
)

// Client-side KV metrics on the default registry. The cluster client is
// the only path the DIESEL server takes to its metadata database, so
// these families expose the metadata traffic the paper's §4.1.1 batching
// argument is about:
//
//	diesel_kv_ops_total{op}        cluster operations by type
//	diesel_kv_retries_total{op}    retried idempotent operations
//
// Per-call latency is the wire layer's diesel_wire_call_seconds{method="kv.*"}.
var (
	opCounters    sync.Map // method → *obs.Counter
	retryCounters sync.Map // method → *obs.Counter
)

// mRetries returns the retry counter for one idempotent method.
func mRetries(method string) *obs.Counter {
	if c, ok := retryCounters.Load(method); ok {
		return c.(*obs.Counter)
	}
	op := strings.TrimPrefix(method, "kv.")
	c := obs.Default().Counter("diesel_kv_retries_total",
		"Idempotent KV operations retried after a transport failure, by operation.",
		obs.L("op", op))
	retryCounters.Store(method, c)
	return c
}

func opCounter(method string) *obs.Counter {
	if c, ok := opCounters.Load(method); ok {
		return c.(*obs.Counter)
	}
	op := strings.TrimPrefix(method, "kv.")
	c := obs.Default().Counter("diesel_kv_ops_total",
		"KV cluster operations issued by clients, by operation.",
		obs.L("op", op))
	opCounters.Store(method, c)
	return c
}

// call routes one RPC to node n under the caller's context — deadline and
// any active trace span reach the wire transport — recording the op
// count. Every Cluster method funnels through here; writes call it
// directly because they must never retry.
func (c *Cluster) call(ctx context.Context, n int, method string, payload []byte) ([]byte, error) {
	resp, err := c.pool(n).CallContext(ctx, method, payload)
	opCounter(method).Inc()
	return resp, err
}
