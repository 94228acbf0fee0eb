// Package netfault is the transport-level fault injector: a seeded,
// replayable wrapper around net.Conn that perturbs the wire the way
// real shard deployments fail — added latency, slow trickled bytes,
// connection resets mid-body, and blackholes that accept the dial and
// then never speak.  It is the network-layer sibling of
// internal/faultinj (NVM device faults) and serve.Chaos (daemon
// failpoints), and follows the same discipline: every decision is a
// pure function of (seed, ordinal), so a fault schedule can be
// rendered, diffed and replayed byte-for-byte from its seed alone.
//
// The ordinal here is the dial count: the injector derives an
// independent decision stream per dial (splitmix64-keyed), so dial N
// always draws the same plan under the same seed.  Residual
// nondeterminism is the dial *order* itself — concurrent transports
// race to dial, so which logical request gets ordinal N can vary across
// runs.  The schedule (the plan sequence by ordinal) is exactly
// reproducible; the assignment of plans to requests is as reproducible
// as the caller's concurrency.
package netfault

import (
	"context"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Class is one injectable network fault class.
type Class string

const (
	// Latency delays the connection's first write by a drawn duration.
	Latency Class = "latency"
	// SlowBytes trickles the first window of response bytes in small
	// chunks with gaps — the slow-server / congested-path shape.
	SlowBytes Class = "slowbytes"
	// Reset closes the connection after a drawn number of response
	// bytes, surfacing ECONNRESET mid-header or mid-body.
	Reset Class = "reset"
	// Blackhole accepts the dial and then never delivers a byte in
	// either direction until the deadline or a close.
	Blackhole Class = "blackhole"
)

// Classes lists every class in canonical (decision-stream) order.
func Classes() []Class { return []Class{Latency, SlowBytes, Reset, Blackhole} }

// ParseClasses resolves a comma-separated class list; "all" or ""
// selects every class.
func ParseClasses(s string) ([]Class, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "all" {
		return Classes(), nil
	}
	known := map[Class]bool{}
	for _, c := range Classes() {
		known[c] = true
	}
	var out []Class
	for _, part := range strings.Split(s, ",") {
		c := Class(strings.TrimSpace(part))
		if !known[c] {
			return nil, fmt.Errorf("netfault: unknown class %q", part)
		}
		out = append(out, c)
	}
	return out, nil
}

// Config arms an injector.
type Config struct {
	// Classes enables fault classes (nil = none; use Classes() for all).
	Classes []Class
	// Rate is the per-class fire probability per dial, in [0,1].
	Rate float64
	// Seed keys every decision stream.  Same seed, same schedule.
	Seed int64
}

// Plan is the faults drawn for one dial ordinal.  A pure function of
// (seed, ordinal) — see PlanFor.
type Plan struct {
	Dial       uint64        `json:"dial"`
	Latency    time.Duration `json:"latency,omitempty"`     // 0 = none
	SlowBytes  bool          `json:"slow_bytes,omitempty"`  // trickle first window
	ResetAfter int           `json:"reset_after,omitempty"` // bytes before reset; 0 = none
	Blackhole  bool          `json:"blackhole,omitempty"`   // supersedes the rest
}

func (p Plan) empty() bool {
	return p.Latency == 0 && !p.SlowBytes && p.ResetAfter == 0 && !p.Blackhole
}

// String renders one plan line, the unit of ScheduleString.
func (p Plan) String() string {
	var parts []string
	if p.Blackhole {
		parts = append(parts, "blackhole")
	} else {
		if p.Latency > 0 {
			parts = append(parts, fmt.Sprintf("latency=%s", p.Latency))
		}
		if p.SlowBytes {
			parts = append(parts, "slowbytes")
		}
		if p.ResetAfter > 0 {
			parts = append(parts, fmt.Sprintf("reset@%dB", p.ResetAfter))
		}
	}
	if len(parts) == 0 {
		parts = append(parts, "clean")
	}
	return fmt.Sprintf("dial %d: %s", p.Dial, strings.Join(parts, " "))
}

// Injector draws per-dial fault plans and wraps connections to apply
// them.  Safe for concurrent use.
type Injector struct {
	cfg     Config
	enabled map[Class]bool
	dials   atomic.Uint64

	mu    sync.Mutex
	fired map[Class]uint64
}

// New builds an injector.  A nil class set or zero rate injects
// nothing (every plan is clean) but still counts dials.
func New(cfg Config) *Injector {
	in := &Injector{cfg: cfg, enabled: map[Class]bool{}, fired: map[Class]uint64{}}
	for _, c := range cfg.Classes {
		in.enabled[c] = true
	}
	return in
}

// splitmix64 is the SplitMix64 mixing finalizer: consecutive ordinals
// land in unrelated regions of the decision space.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// stream is the per-dial decision stream.
type stream struct{ s uint64 }

func (r *stream) next() uint64 {
	r.s = splitmix64(r.s)
	return r.s
}

func (r *stream) chance(rate float64) bool {
	return rate > 0 && float64(r.next()%1_000_000)/1_000_000 < rate
}

// PlanFor derives dial ordinal's fault plan: a pure function of the
// injector's (seed, classes, rate) and the ordinal — the replay
// contract the fleet gate's replay round asserts.
func (in *Injector) PlanFor(dial uint64) Plan {
	p := Plan{Dial: dial}
	r := &stream{s: splitmix64(uint64(in.cfg.Seed)) ^ splitmix64(dial+0x51ab_1ded)}
	// Draws happen in canonical class order for every dial, enabled or
	// not, so enabling a class never shifts another class's stream.
	for _, c := range Classes() {
		fire := r.chance(in.cfg.Rate) && in.enabled[c]
		switch c {
		case Latency:
			d := time.Duration(1+r.next()%8) * time.Millisecond
			if fire {
				p.Latency = d
			}
		case SlowBytes:
			if fire {
				p.SlowBytes = true
			}
		case Reset:
			n := int(64 + r.next()%4032)
			if fire {
				p.ResetAfter = n
			}
		case Blackhole:
			if fire {
				p.Blackhole = true
			}
		}
	}
	if p.Blackhole {
		p.Latency, p.SlowBytes, p.ResetAfter = 0, false, 0
	}
	return p
}

// ScheduleString renders the first n dial plans — two injectors with
// the same config render identical schedules, which is how the gate
// proves seed replay without depending on racy dial interleavings.
func (in *Injector) ScheduleString(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(in.PlanFor(uint64(i)).String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Dials returns how many dials the injector has decorated.
func (in *Injector) Dials() uint64 { return in.dials.Load() }

// Fired snapshots the per-class observed fire counts.
func (in *Injector) Fired() map[Class]uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[Class]uint64, len(in.fired))
	for c, n := range in.fired {
		out[c] = n
	}
	return out
}

// FiredTotal sums observed fires across classes.
func (in *Injector) FiredTotal() uint64 {
	var t uint64
	for _, n := range in.Fired() {
		t += n
	}
	return t
}

// FiredString renders the observed fire counts, classes sorted.
func (in *Injector) FiredString() string {
	fired := in.Fired()
	keys := make([]string, 0, len(fired))
	for c := range fired {
		keys = append(keys, string(c))
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, fired[Class(k)]))
	}
	return strings.Join(parts, " ")
}

func (in *Injector) record(p Plan) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if p.Blackhole {
		in.fired[Blackhole]++
		return
	}
	if p.Latency > 0 {
		in.fired[Latency]++
	}
	if p.SlowBytes {
		in.fired[SlowBytes]++
	}
	if p.ResetAfter > 0 {
		in.fired[Reset]++
	}
}

// DialFunc is the shape of net.Dialer.DialContext.
type DialFunc func(ctx context.Context, network, addr string) (net.Conn, error)

// WrapDial decorates a dialer: each dial takes the next ordinal, draws
// its plan, and returns a connection that applies it.  A nil base
// means a default net.Dialer.
func (in *Injector) WrapDial(base DialFunc) DialFunc {
	if base == nil {
		var d net.Dialer
		base = d.DialContext
	}
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		ordinal := in.dials.Add(1) - 1
		p := in.PlanFor(ordinal)
		if !p.empty() {
			in.record(p)
		}
		if p.Blackhole {
			// The dial "succeeds" — the far end just never answers.
			return newBlackholeConn(addr), nil
		}
		c, err := base(ctx, network, addr)
		if err != nil || p.empty() {
			return c, err
		}
		return &faultConn{Conn: c, plan: p, closed: make(chan struct{})}, nil
	}
}

// --- fault connection ---

// slowWindow / slowChunk / slowGap shape the SlowBytes trickle: the
// first window of read bytes arrives in chunk-sized pieces with a gap
// before each — enough to smear a response's header/body boundary
// across many reads without stalling a whole gate round.
const (
	slowWindow = 96
	slowChunk  = 16
	slowGap    = 300 * time.Microsecond
)

// faultConn applies a non-blackhole plan to a live connection.
type faultConn struct {
	net.Conn
	plan      Plan
	wroteOnce sync.Once
	closeOnce sync.Once
	closed    chan struct{}

	mu   sync.Mutex
	read int // response bytes delivered so far
}

func (c *faultConn) Write(p []byte) (int, error) {
	if c.plan.Latency > 0 {
		c.wroteOnce.Do(func() {
			select {
			case <-time.After(c.plan.Latency):
			case <-c.closed:
			}
		})
	}
	return c.Conn.Write(p)
}

func (c *faultConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	read := c.read
	c.mu.Unlock()
	if c.plan.ResetAfter > 0 {
		if read >= c.plan.ResetAfter {
			// The far end "reset" us: kill the real connection so both
			// directions are dead, and surface ECONNRESET exactly like
			// a remote RST would.
			c.Close()
			return 0, syscall.ECONNRESET
		}
		if max := c.plan.ResetAfter - read; len(p) > max {
			p = p[:max]
		}
	}
	if c.plan.SlowBytes && read < slowWindow {
		if len(p) > slowChunk {
			p = p[:slowChunk]
		}
		select {
		case <-time.After(slowGap):
		case <-c.closed:
			return 0, net.ErrClosed
		}
	}
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.read += n
	c.mu.Unlock()
	return n, err
}

func (c *faultConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// --- blackhole connection ---

// timeoutError satisfies net.Error with Timeout()==true, matching what
// a real stalled peer surfaces through a deadline.
type timeoutError struct{}

func (timeoutError) Error() string   { return "netfault: blackhole i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// blackholeConn is a "connected" socket whose peer never speaks:
// reads and writes block until a deadline expires or the conn is
// closed.  HTTP clients escape it through their request context (the
// transport closes the conn), which is precisely the failure mode the
// fleet's per-request deadline exists for.
type blackholeConn struct {
	addr   string
	closed chan struct{}
	once   sync.Once

	mu            sync.Mutex
	readDeadline  time.Time
	writeDeadline time.Time
}

func newBlackholeConn(addr string) *blackholeConn {
	return &blackholeConn{addr: addr, closed: make(chan struct{})}
}

func (c *blackholeConn) stall(deadline time.Time) error {
	var expire <-chan time.Time
	if !deadline.IsZero() {
		d := time.Until(deadline)
		if d <= 0 {
			return timeoutError{}
		}
		t := time.NewTimer(d)
		defer t.Stop()
		expire = t.C
	}
	select {
	case <-c.closed:
		return net.ErrClosed
	case <-expire:
		return timeoutError{}
	}
}

func (c *blackholeConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	d := c.readDeadline
	c.mu.Unlock()
	return 0, c.stall(d)
}

func (c *blackholeConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	d := c.writeDeadline
	c.mu.Unlock()
	return 0, c.stall(d)
}

func (c *blackholeConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

type blackholeAddr struct{ s string }

func (a blackholeAddr) Network() string { return "tcp" }
func (a blackholeAddr) String() string  { return a.s }

func (c *blackholeConn) LocalAddr() net.Addr  { return blackholeAddr{"blackhole"} }
func (c *blackholeConn) RemoteAddr() net.Addr { return blackholeAddr{c.addr} }

func (c *blackholeConn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline, c.writeDeadline = t, t
	c.mu.Unlock()
	return nil
}

func (c *blackholeConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline = t
	c.mu.Unlock()
	return nil
}

func (c *blackholeConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.writeDeadline = t
	c.mu.Unlock()
	return nil
}
