package client

import "diesel/internal/obs"

// Process-wide client metrics on the default registry. Per-connection
// counts (gets, server metadata ops) stay in ClientStats; the two below
// sum over every libDIESEL connection in the process, which is what a
// scrape wants. Batched and whole-chunk reads
// are one RPC each, so their latency is the wire layer's
// diesel_wire_call_seconds{method="dsl.getBatch"|"dsl.getChunk"}.
//
//	diesel_client_retries_total   idempotent reads retried after
//	                              transport failures
//	diesel_client_get_seconds     DL_get latency (cache reader or server)
var (
	mRetries = obs.Default().Counter("diesel_client_retries_total",
		"Idempotent client reads retried after a transport failure.")

	mGetLat = obs.Default().Duration("diesel_client_get_seconds",
		"DL_get latency (cache reader or direct server read).")
)
