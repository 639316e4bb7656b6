package wire

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"
)

// ErrFaultSevered is returned by writes on a fault-injected connection
// after the injector has severed it.
var ErrFaultSevered = errors.New("wire: fault injection severed connection")

// FaultPlan is what a FaultGate injects. Probabilities are evaluated per
// write with a private seeded RNG, so a given (plan, traffic) pair
// replays the same fault sequence every run.
type FaultPlan struct {
	// Seed seeds the injector's RNG; the same seed replays the same
	// decisions.
	Seed int64
	// DropProb is the probability that a write is silently swallowed:
	// the caller sees success, the peer sees nothing — a lost request,
	// the case only deadlines can unstick.
	DropProb float64
	// SeverProb is the probability that a write kills the connection
	// instead of transmitting — a mid-call connection failure.
	SeverProb float64
	// Delay is added to every write before it is transmitted (or
	// dropped), simulating a slow or congested link.
	Delay time.Duration
}

// faultConn wraps a net.Conn, injecting the current plan's faults on
// writes. Reads pass through untouched: request loss, delay and severing
// are all expressible on the write side, and keeping reads clean means a
// response already in flight still arrives. The plan is re-read per write
// (via current), which is what lets a FaultGate open and close fault
// windows on live connections.
type faultConn struct {
	net.Conn
	current func() FaultPlan

	mu      sync.Mutex
	rng     *rand.Rand
	severed bool
}

func (f *faultConn) Write(b []byte) (int, error) {
	plan := f.current()
	if plan.Delay > 0 {
		time.Sleep(plan.Delay)
	}
	f.mu.Lock()
	if f.severed {
		f.mu.Unlock()
		return 0, ErrFaultSevered
	}
	r := f.rng.Float64()
	switch {
	case r < plan.SeverProb:
		f.severed = true
		f.mu.Unlock()
		f.Conn.Close()
		return 0, ErrFaultSevered
	case r < plan.SeverProb+plan.DropProb:
		f.mu.Unlock()
		return len(b), nil // swallowed: caller believes it was sent
	}
	f.mu.Unlock()
	return f.Conn.Write(b)
}

// --- fault gate: runtime-togglable fault windows ---

// FaultGate is a switchboard for scripted fault windows: connections
// dialed through Gate.Dialer consult the gate's current plan on every
// write, so a load harness can open a slow/drop/sever window mid-run and
// close it again without redialing anything. The zero value is an open
// gate (no faults).
type FaultGate struct {
	mu   sync.Mutex
	plan FaultPlan
	seq  int64 // distinct per-connection RNG streams under one seed
}

// Set replaces the active fault plan. All gated connections see it on
// their next write.
func (g *FaultGate) Set(plan FaultPlan) {
	g.mu.Lock()
	g.plan = plan
	g.mu.Unlock()
}

// Clear removes all faults (equivalent to Set(FaultPlan{})).
func (g *FaultGate) Clear() { g.Set(FaultPlan{}) }

// current returns the active fault plan.
func (g *FaultGate) current() FaultPlan {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.plan
}

// inject wraps conn so its writes consult the gate's current plan.
func (g *FaultGate) inject(conn net.Conn) net.Conn {
	g.mu.Lock()
	g.seq++
	seed := g.plan.Seed + g.seq
	g.mu.Unlock()
	return &faultConn{Conn: conn, current: g.current, rng: rand.New(rand.NewSource(seed))}
}

// Dialer returns a dialer for WithDialer whose every connection is gated
// by g.
func (g *FaultGate) Dialer() func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return g.inject(conn), nil
	}
}
