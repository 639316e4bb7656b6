package client

import (
	"context"
	"errors"
	"testing"
)

// TestConnectNoDataset pins the typed error: an empty Options.Dataset
// must fail fast with ErrNoDataset (not a server-side validation error),
// so callers can branch on it.
func TestConnectNoDataset(t *testing.T) {
	addrs := startServers(t, 1)
	_, err := Connect(Options{Servers: addrs})
	if !errors.Is(err, ErrNoDataset) {
		t.Fatalf("Connect without dataset: %v, want ErrNoDataset", err)
	}
	// The check precedes dialing: no servers needed to hit it.
	if _, err := Connect(Options{}); !errors.Is(err, ErrNoDataset) {
		t.Fatalf("Connect without servers or dataset: %v, want ErrNoDataset", err)
	}
}

// TestJobRegistrationOnConnect verifies the serving-plane handshake: a
// client with a JobID registers on connect, shows up in the roster with
// its tenant, heartbeats, and unregisters on Close.
func TestJobRegistrationOnConnect(t *testing.T) {
	addrs := startServers(t, 1)

	c, err := Connect(Options{
		Servers: addrs, Dataset: "ds",
		JobID: "trainer-1", Tenant: "alice", Rank: 3,
	})
	if err != nil {
		t.Fatal(err)
	}

	jobs, err := c.Jobs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("roster: %d jobs, want 1", len(jobs))
	}
	j := jobs[0]
	if j.ID != "trainer-1" || j.Tenant != "alice" || j.Dataset != "ds" || j.Rank != 3 {
		t.Fatalf("roster entry %+v, want trainer-1/alice/ds/3", j)
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Close unregisters: an anonymous connection sees an empty roster.
	c2 := connect(t, addrs, "ds")
	jobs, err = c2.Jobs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Fatalf("roster after Close: %+v, want empty", jobs)
	}

	// ListJobs answers the same roster without a dataset handle.
	if _, err := ListJobs(addrs[0]); err != nil {
		t.Fatalf("ListJobs: %v", err)
	}
}

// TestAnonymousClientStillWorks pins graceful degradation: no JobID means
// no registration, and everything else behaves as before.
func TestAnonymousClientStillWorks(t *testing.T) {
	addrs := startServers(t, 1)
	c := connect(t, addrs, "ds")
	if err := c.DefaultDataset().Put("a.jpg", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := c.DefaultDataset().Flush(); err != nil {
		t.Fatal(err)
	}
	b, err := c.DefaultDataset().Get(context.Background(), "a.jpg")
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "x" {
		t.Fatalf("got %q", b)
	}
	if c.JobID() != "" {
		t.Fatalf("anonymous client has JobID %q", c.JobID())
	}
}
