package wire

import "context"

// jobMethod is the oneway frame a job-identified client sends as the very
// first frame on a fresh connection, carrying the JobIdentity every
// subsequent request on that connection should be attributed to. It rides
// the connection, not each request, so the per-request hot path stays
// untouched.
const jobMethod = "wire.job"

// JobIdentity names the training job behind a connection: which job,
// which tenant it bills to, which dataset it trains on, and the trainer's
// rank within the job. The zero value means "anonymous" and is what
// clients without a job (admin tools) implicitly present.
type JobIdentity struct {
	ID      string
	Tenant  string
	Dataset string
	Rank    int
}

// encode serialises the identity for the wire.job frame.
func (j JobIdentity) encode() []byte {
	e := NewEncoder(len(j.ID) + len(j.Tenant) + len(j.Dataset) + 24)
	e.String(j.ID)
	e.String(j.Tenant)
	e.String(j.Dataset)
	e.Uint32(uint32(j.Rank))
	return e.Bytes()
}

// decodeJobIdentity parses a wire.job payload. Strings are copied out of
// the pooled frame buffer, so the identity may outlive the frame.
func decodeJobIdentity(p []byte) (JobIdentity, error) {
	d := NewDecoder(p)
	j := JobIdentity{
		ID:      d.String(),
		Tenant:  d.String(),
		Dataset: d.String(),
		Rank:    int(d.Uint32()),
	}
	return j, d.Err()
}

type jobCtxKey struct{}

// withJob returns a context carrying the given job identity. The server's
// dispatch loop attaches the connection's identity to every request
// context; handlers (quota admission, fair dispatch, metrics) read it back
// with JobFromContext.
func withJob(ctx context.Context, j JobIdentity) context.Context {
	return context.WithValue(ctx, jobCtxKey{}, j)
}

// JobFromContext returns the job identity attached to ctx, if any.
func JobFromContext(ctx context.Context) (JobIdentity, bool) {
	j, ok := ctx.Value(jobCtxKey{}).(JobIdentity)
	return j, ok
}
