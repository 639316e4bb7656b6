package kvstore

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"time"

	"diesel/internal/obs"
)

// Client-side KV metrics on the default registry. The cluster client is
// the only path the DIESEL server takes to its metadata database, so
// these families expose the metadata traffic the paper's §4.1.1 batching
// argument is about:
//
//	diesel_kv_ops_total{op}        cluster operations by type
//	diesel_kv_retries_total{op}    retried idempotent operations
//	diesel_kv_batch_size{op}       pairs per MSet / keys per MGet
//	diesel_kv_call_seconds{node}   per-node RPC latency
var (
	mBatchMSet = obs.Default().Histogram("diesel_kv_batch_size",
		"Batch sizes of grouped KV operations (pairs per MSet, keys per MGet).",
		1, obs.L("op", "mset"))
	mBatchMGet = obs.Default().Histogram("diesel_kv_batch_size",
		"Batch sizes of grouped KV operations (pairs per MSet, keys per MGet).",
		1, obs.L("op", "mget"))

	opCounters    sync.Map // method → *obs.Counter
	retryCounters sync.Map // method → *obs.Counter
	nodeHists     sync.Map // node index (int) → *obs.Histogram
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

func nodeHist(n int) *obs.Histogram {
	if h, ok := nodeHists.Load(n); ok {
		return h.(*obs.Histogram)
	}
	h := obs.Default().Duration("diesel_kv_call_seconds",
		"Client-observed KV RPC latency by node index.",
		obs.L("node", strconv.Itoa(n)))
	nodeHists.Store(n, h)
	return h
}

// call routes one RPC to node n under the caller's context — deadline and
// any active trace span reach the wire transport — recording the op count
// and per-node latency. Every Cluster method funnels through here; writes
// call it directly because they must never retry.
func (c *Cluster) call(ctx context.Context, n int, method string, payload []byte) ([]byte, error) {
	start := time.Now()
	resp, err := c.pool(n).CallContext(ctx, method, payload)
	opCounter(method).Inc()
	nodeHist(n).Since(start)
	return resp, err
}
