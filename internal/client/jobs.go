package client

import (
	"context"

	"diesel/internal/server"
	"diesel/internal/wire"
)

// JobStatus is one row of a server's job roster, as listed by
// Client.Jobs or dlcmd jobs.
type JobStatus struct {
	ID           string
	Dataset      string
	Tenant       string
	Rank         int
	RegisteredNS int64
	HeartbeatNS  int64
}

// Jobs lists the live job roster of the connected servers. Every server
// sharing one metadata cluster answers with the same roster, so the call
// goes to whichever connection round-robin picks.
func (c *Client) Jobs(ctx context.Context) ([]JobStatus, error) {
	resp, err := c.callIdem(ctx, server.MethodJobs, nil)
	if err != nil {
		return nil, err
	}
	return decodeJobs(resp)
}

// ListJobs dials one server address and lists its job roster without
// opening a dataset — the admin path of `dlcmd jobs`, which has no
// dataset to name.
func ListJobs(addr string) ([]JobStatus, error) {
	wc, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer wc.Close()
	resp, err := wc.Call(server.MethodJobs, nil)
	if err != nil {
		return nil, err
	}
	return decodeJobs(resp)
}

func decodeJobs(p []byte) ([]JobStatus, error) {
	d := wire.NewDecoder(p)
	n := int(d.Uint32())
	jobs := make([]JobStatus, 0, n)
	for i := 0; i < n; i++ {
		jobs = append(jobs, JobStatus{
			ID:           d.String(),
			Dataset:      d.String(),
			Tenant:       d.String(),
			Rank:         int(d.Uint32()),
			RegisteredNS: d.Int64(),
			HeartbeatNS:  d.Int64(),
		})
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return jobs, nil
}
