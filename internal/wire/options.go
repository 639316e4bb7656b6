package wire

import (
	"net"
	"time"
)

// options collects the knobs shared by Dial and DialPool. The zero value
// (no call deadline, default TCP dialer) matches the pre-option behaviour
// of the transport.
type options struct {
	callTimeout time.Duration
	dialer      func(addr string) (net.Conn, error)
	job         *JobIdentity

	// The capped exponential backoff a Pool applies between redial attempts
	// of a broken connection: redialBackoffBase and redialBackoffMax, fields
	// only so that tests can shrink them in-package.
	backoffBase time.Duration
	backoffMax  time.Duration
}

// The redial backoff: the first failed redial waits the base, then 2×,
// 4×, … capped at the max.
const (
	redialBackoffBase = 50 * time.Millisecond
	redialBackoffMax  = 2 * time.Second
)

// Option configures Dial or DialPool.
type Option func(*options)

// WithCallTimeout bounds every call made on the connection — Call,
// CallContext, CallLendContext and CallBorrowContext, and every attempt
// of a Pool's calls, whose connections are dialed with its options. A
// call that outlives it fails with an error wrapping
// context.DeadlineExceeded. Zero means calls block until the connection
// breaks or their context ends — only safe against servers that always
// answer.
func WithCallTimeout(d time.Duration) Option {
	return func(o *options) { o.callTimeout = d }
}

// WithDialer replaces the TCP dialer. Tests use it to interpose
// fault-injecting connections (see FaultGate) or to capture the raw
// conns so they can be severed deliberately.
func WithDialer(fn func(addr string) (net.Conn, error)) Option {
	return func(o *options) { o.dialer = fn }
}

// WithJobIdentity attaches a job identity to every connection this dialer
// (or pool — redials included) opens: the identity is sent as the first
// frame of the connection, so the server attributes all requests on it to
// the job.
func WithJobIdentity(j JobIdentity) Option {
	return func(o *options) { o.job = &j }
}

func buildOptions(opts []Option) options {
	o := options{backoffBase: redialBackoffBase, backoffMax: redialBackoffMax}
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

func (o *options) dialConn(addr string) (net.Conn, error) {
	if o.dialer != nil {
		return o.dialer(addr)
	}
	return net.Dial("tcp", addr)
}

// backoffFor returns the capped exponential delay after `failures`
// consecutive redial failures (failures ≥ 1).
func (o *options) backoffFor(failures int) time.Duration {
	d := o.backoffBase
	for i := 1; i < failures; i++ {
		d *= 2
		if d >= o.backoffMax {
			return o.backoffMax
		}
	}
	if d > o.backoffMax {
		return o.backoffMax
	}
	return d
}
