package kvstore

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// startClusterOpts is startCluster with explicit failure-handling options.
func startClusterOpts(t *testing.T, n int, opts Options) (*Cluster, []*Server) {
	t.Helper()
	servers := make([]*Server, n)
	addrs := make([]string, n)
	for i := range n {
		s, err := NewServer("127.0.0.1:0")
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		servers[i] = s
		addrs[i] = s.Addr()
		t.Cleanup(func() { s.Close() })
	}
	c, err := DialClusterOpts(addrs, opts)
	if err != nil {
		t.Fatalf("DialClusterOpts: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c, servers
}

// keyOwnedBy finds a key whose slot maps to node n.
func keyOwnedBy(t *testing.T, c *Cluster, n int) string {
	t.Helper()
	for i := range 10000 {
		k := fmt.Sprintf("probe-%04d", i)
		if c.nodeFor(k) == n {
			return k
		}
	}
	t.Fatal("no key found for node")
	return ""
}

// TestClusterReadsRetryAndReportAttempts checks the cluster's wiring of
// wire.Retry (the loop itself is tested in internal/wire): single-key and
// batched reads against a dead node both exhaust the retry budget and
// report it under the kvstore prefix.
func TestClusterReadsRetryAndReportAttempts(t *testing.T) {
	c, servers := startClusterOpts(t, 2, Options{
		ConnsPerNode: 2,
		MaxRetries:   1,
		RetryBackoff: 2 * time.Millisecond,
		CallTimeout:  500 * time.Millisecond,
	})
	key := keyOwnedBy(t, c, 1)
	if err := c.Set(key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	servers[1].Close()

	// MaxRetries=1 → 2 attempts.
	want := "kvstore: node 1 (" + servers[1].Addr() + ") kv.get failed after 2 attempts"
	if _, err := c.Get(key); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Get against a dead node: %v, want %q", err, want)
	}
	if _, err := c.MGet([]string{key}); err == nil || !strings.Contains(err.Error(), "kv.mget failed after 2 attempts") {
		t.Errorf("MGet against a dead node: %v", err)
	}
	if _, err := c.DBSize(); err == nil || !strings.Contains(err.Error(), "kv.dbsize failed after 2 attempts") {
		t.Errorf("DBSize against a dead node: %v", err)
	}
}

// TestClusterMSetJoinsAllNodeErrors verifies a fan-out write reports
// every failed node, not just the first error it happens to see.
func TestClusterMSetJoinsAllNodeErrors(t *testing.T) {
	c, servers := startClusterOpts(t, 2, Options{
		MaxRetries:   -1, // writes never retry anyway; keep reads snappy too
		CallTimeout:  500 * time.Millisecond,
		RetryBackoff: 2 * time.Millisecond,
	})
	// Pairs spanning both nodes.
	var pairs []KV
	for i := range 64 {
		pairs = append(pairs, KV{Key: fmt.Sprintf("span-%04d", i), Value: []byte("v")})
	}
	for _, s := range servers {
		s.Close()
	}
	err := c.MSet(pairs)
	if err == nil {
		t.Fatal("MSet against a dead cluster succeeded")
	}
	for n := range 2 {
		if !strings.Contains(err.Error(), fmt.Sprintf("mset on node %d", n)) {
			t.Errorf("joined error missing node %d failure:\n%v", n, err)
		}
	}
}

// TestClusterHealsAfterNodeRestart kills a node, restarts it on the same
// address, and verifies the cluster client's pools redial by themselves —
// no reconnect call exists, so this must happen unaided.
func TestClusterHealsAfterNodeRestart(t *testing.T) {
	c, servers := startClusterOpts(t, 2, Options{
		MaxRetries:   1,
		RetryBackoff: 2 * time.Millisecond,
		CallTimeout:  time.Second,
	})
	key := keyOwnedBy(t, c, 0)
	addr := servers[0].Addr()
	servers[0].Close()
	if _, err := c.Get(key); err == nil {
		t.Fatal("Get against a dead node succeeded")
	}

	// Restart on the same address; rebinding can race the close briefly.
	var s2 *Server
	var err error
	for i := 0; ; i++ {
		if s2, err = NewServer(addr); err == nil {
			break
		}
		if i > 100 {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer s2.Close()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := c.Set(key, []byte("back")); err == nil {
			if v, err := c.Get(key); err == nil && string(v) == "back" {
				return // healed
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("cluster client never healed after node restart")
}
