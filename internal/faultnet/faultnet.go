// Package faultnet is a deterministic, seed-driven fault injector for TCP
// connections: a net.Conn wrapper that perturbs reads and writes with
// latency, partial transfers, byte corruption, slow-loris stalls, and
// abrupt resets; a net.Listener wrapper that adds accept-time failures;
// and a loopback Proxy that puts all of it in front of a real server so
// unmodified clients (internal/client, raw sockets) experience an
// adversarial network.
//
// Every fault decision is drawn from a PRNG derived from Faults.Seed and
// the connection's accept/dial ordinal (with separate read-side and
// write-side streams, so the two pump goroutines of a proxied connection
// do not race on one generator). Re-running a test with the same seed
// re-issues the same fault schedule per connection, which is what makes a
// failing chaos run replayable; the seed therefore belongs in every
// failure report.
//
// The injector exists to test the paper's central claim (§1) at the
// process boundary: lock-free structures tolerate arbitrarily delayed
// participants, so a server built on them must degrade gracefully — not
// corrupt state, leak goroutines, or deadlock — when the network delays,
// truncates, or kills its clients mid-command.
package faultnet

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjectedReset is returned by a wrapped connection's Read or Write
// when the injector kills the connection mid-operation.
var ErrInjectedReset = errors.New("faultnet: injected connection reset")

// Faults configures the injector. Probabilities are per read/write call
// (per accept for AcceptFailProb), in [0, 1]; zero values inject nothing,
// so the zero Faults is a transparent wrapper.
type Faults struct {
	// Seed drives every fault decision. Runs with equal seeds issue
	// equal per-connection fault schedules.
	Seed int64

	// LatencyProb delays a read or write by a uniform random duration
	// in (0, MaxLatency].
	LatencyProb float64
	MaxLatency  time.Duration

	// PartialReadProb delivers fewer bytes than the caller asked for
	// (at least 1), forcing the peer's parser to handle split frames.
	PartialReadProb float64

	// PartialWriteProb splits one write into several smaller writes.
	// All bytes are still delivered; only the framing is perturbed.
	PartialWriteProb float64

	// ResetProb abruptly kills the connection (RST where the platform
	// allows it) before — or for writes, possibly in the middle of —
	// the operation. The caller gets ErrInjectedReset.
	ResetProb float64

	// CorruptProb flips one random bit of the transferred chunk.
	// The valoisd protocol has no integrity layer, so corruption can
	// silently alter keys, values, or replies: enable it to prove the
	// server survives garbage, not in linearizability runs (DESIGN §8).
	CorruptProb float64

	// StallProb sleeps for the full Stall duration before the
	// operation — the slow-loris fault, sized to trip server deadlines
	// rather than merely jitter (compare MaxLatency).
	StallProb float64
	Stall     time.Duration

	// AcceptFailProb kills a just-accepted connection before any bytes
	// flow: the client's dial succeeds, then its first I/O fails.
	AcceptFailProb float64
}

// Stats counts injected faults, shared by every connection of one
// Listener or Proxy. Read with Snapshot.
type Stats struct {
	Latencies     atomic.Int64
	PartialReads  atomic.Int64
	PartialWrites atomic.Int64
	Resets        atomic.Int64
	Corruptions   atomic.Int64
	Stalls        atomic.Int64
	AcceptFails   atomic.Int64
}

// Snapshot is a plain-value copy of the counters.
type Snapshot struct {
	Latencies     int64
	PartialReads  int64
	PartialWrites int64
	Resets        int64
	Corruptions   int64
	Stalls        int64
	AcceptFails   int64
}

// Snapshot reads the counters.
func (s *Stats) Snapshot() Snapshot {
	return Snapshot{
		Latencies:     s.Latencies.Load(),
		PartialReads:  s.PartialReads.Load(),
		PartialWrites: s.PartialWrites.Load(),
		Resets:        s.Resets.Load(),
		Corruptions:   s.Corruptions.Load(),
		Stalls:        s.Stalls.Load(),
		AcceptFails:   s.AcceptFails.Load(),
	}
}

// Total sums every fault class.
func (s Snapshot) Total() int64 {
	return s.Latencies + s.PartialReads + s.PartialWrites + s.Resets +
		s.Corruptions + s.Stalls + s.AcceptFails
}

// rngFor derives an independent PRNG stream from the seed, the
// connection ordinal, and the direction (read/write/accept), via a
// splitmix64 mix so nearby seeds do not produce correlated streams.
func rngFor(seed, id, dir int64) *rand.Rand {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(id*4+dir+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z)))
}

func fire(rng *rand.Rand, p float64) bool {
	return p > 0 && rng.Float64() < p
}

// Conn wraps a net.Conn with fault injection on both directions. It is
// safe for one concurrent reader and one concurrent writer, like
// net.Conn itself.
type Conn struct {
	nc net.Conn
	f  Faults
	st *Stats

	rmu  sync.Mutex // read-side fault stream
	rrng *rand.Rand
	wmu  sync.Mutex // write-side fault stream
	wrng *rand.Rand

	dead atomic.Bool
}

// Wrap wraps nc with the fault schedule of connection ordinal id. The
// Stats may be nil.
func Wrap(nc net.Conn, f Faults, id int64, st *Stats) *Conn {
	if st == nil {
		st = &Stats{}
	}
	return &Conn{nc: nc, f: f, st: st, rrng: rngFor(f.Seed, id, 0), wrng: rngFor(f.Seed, id, 1)}
}

// reset kills the connection abruptly. SetLinger(0) turns the close into
// a TCP RST where the stack supports it, so the peer sees "connection
// reset" rather than a clean EOF.
func (c *Conn) reset() {
	c.dead.Store(true)
	if tc, ok := c.nc.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.nc.Close()
}

// delay applies the stall and latency faults for one operation.
func (c *Conn) delay(rng *rand.Rand) {
	if fire(rng, c.f.StallProb) && c.f.Stall > 0 {
		c.st.Stalls.Add(1)
		time.Sleep(c.f.Stall)
	}
	if fire(rng, c.f.LatencyProb) && c.f.MaxLatency > 0 {
		c.st.Latencies.Add(1)
		time.Sleep(time.Duration(1 + rng.Int63n(int64(c.f.MaxLatency))))
	}
}

// Read reads from the wrapped connection, possibly delayed, truncated,
// corrupted, or cut by an injected reset.
func (c *Conn) Read(p []byte) (int, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if c.dead.Load() {
		return 0, ErrInjectedReset
	}
	c.delay(c.rrng)
	if fire(c.rrng, c.f.ResetProb) {
		c.st.Resets.Add(1)
		c.reset()
		return 0, ErrInjectedReset
	}
	n := len(p)
	if n > 1 && fire(c.rrng, c.f.PartialReadProb) {
		c.st.PartialReads.Add(1)
		n = 1 + c.rrng.Intn(n-1)
	}
	m, err := c.nc.Read(p[:n])
	if m > 0 && fire(c.rrng, c.f.CorruptProb) {
		c.st.Corruptions.Add(1)
		p[c.rrng.Intn(m)] ^= 1 << uint(c.rrng.Intn(8))
	}
	return m, err
}

// Write writes to the wrapped connection, possibly delayed, split into
// smaller writes, corrupted, or cut — mid-write — by an injected reset.
func (c *Conn) Write(p []byte) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.dead.Load() {
		return 0, ErrInjectedReset
	}
	c.delay(c.wrng)
	if fire(c.wrng, c.f.ResetProb) {
		c.st.Resets.Add(1)
		// A mid-command reset: deliver a prefix, then kill the
		// connection, so the peer sees a truncated frame.
		n := 0
		if len(p) > 0 {
			if k := c.wrng.Intn(len(p)); k > 0 {
				n, _ = c.nc.Write(p[:k])
			}
		}
		c.reset()
		return n, ErrInjectedReset
	}
	if fire(c.wrng, c.f.CorruptProb) && len(p) > 0 {
		c.st.Corruptions.Add(1)
		q := make([]byte, len(p))
		copy(q, p)
		q[c.wrng.Intn(len(q))] ^= 1 << uint(c.wrng.Intn(8))
		p = q
	}
	if len(p) > 1 && fire(c.wrng, c.f.PartialWriteProb) {
		c.st.PartialWrites.Add(1)
		written := 0
		for written < len(p) {
			rest := len(p) - written
			k := rest
			if rest > 1 {
				k = 1 + c.wrng.Intn(rest)
			}
			m, err := c.nc.Write(p[written : written+k])
			written += m
			if err != nil {
				return written, err
			}
			if written < len(p) && c.f.MaxLatency > 0 {
				time.Sleep(time.Duration(1 + c.wrng.Int63n(int64(c.f.MaxLatency))))
			}
		}
		return written, nil
	}
	return c.nc.Write(p)
}

// Close closes the wrapped connection.
func (c *Conn) Close() error { return c.nc.Close() }

// CloseWrite half-closes the write side when the underlying connection
// supports it (TCP), so a proxy can propagate EOF per direction.
func (c *Conn) CloseWrite() error {
	if tc, ok := c.nc.(*net.TCPConn); ok {
		return tc.CloseWrite()
	}
	return c.nc.Close()
}

// LocalAddr returns the wrapped connection's local address.
func (c *Conn) LocalAddr() net.Addr { return c.nc.LocalAddr() }

// RemoteAddr returns the wrapped connection's remote address.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// SetDeadline forwards to the wrapped connection.
func (c *Conn) SetDeadline(t time.Time) error { return c.nc.SetDeadline(t) }

// SetReadDeadline forwards to the wrapped connection.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.nc.SetReadDeadline(t) }

// SetWriteDeadline forwards to the wrapped connection.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.nc.SetWriteDeadline(t) }

// Listener wraps a net.Listener: accepted connections are fault-wrapped
// in accept order, and AcceptFailProb kills some before any bytes flow.
type Listener struct {
	ln    net.Listener
	f     Faults
	stats *Stats
	next  atomic.Int64
	arng  *rand.Rand // accept-fault stream; Accept is called serially
}

// WrapListener wraps ln.
func WrapListener(ln net.Listener, f Faults) *Listener {
	return &Listener{ln: ln, f: f, stats: &Stats{}, arng: rngFor(f.Seed, 0, 2)}
}

// Stats returns the listener's shared fault counters.
func (l *Listener) Stats() *Stats { return l.stats }

// Accept accepts the next connection, fault-wrapped. Accept-time
// failures abort the young connection (the dialer's first I/O fails)
// and move on to the next one.
func (l *Listener) Accept() (net.Conn, error) {
	for {
		nc, err := l.ln.Accept()
		if err != nil {
			return nil, err
		}
		id := l.next.Add(1)
		if fire(l.arng, l.f.AcceptFailProb) {
			l.stats.AcceptFails.Add(1)
			if tc, ok := nc.(*net.TCPConn); ok {
				tc.SetLinger(0)
			}
			nc.Close()
			continue
		}
		return Wrap(nc, l.f, id, l.stats), nil
	}
}

// Close closes the wrapped listener.
func (l *Listener) Close() error { return l.ln.Close() }

// Addr returns the wrapped listener's address.
func (l *Listener) Addr() net.Addr { return l.ln.Addr() }

// Proxy is a loopback TCP proxy that forwards to a target address with
// faults injected on the client-facing side of every connection. Clients
// that dial Proxy.Addr() — internal/client, raw sockets —
// experience the adversarial network without modification; the target
// server sees clean TCP carrying whatever survived the faults.
type Proxy struct {
	target string
	fln    *Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	wg sync.WaitGroup
}

// NewProxy listens on an ephemeral loopback port and forwards to target.
func NewProxy(target string, f Faults) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{target: target, fln: WrapListener(ln, f), conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.serve()
	return p, nil
}

// Addr returns the proxy's dial address.
func (p *Proxy) Addr() string { return p.fln.Addr().String() }

// Stats returns the shared fault counters.
func (p *Proxy) Stats() *Stats { return p.fln.Stats() }

// Close stops accepting, kills every proxied connection, and waits for
// the pump goroutines to drain.
func (p *Proxy) Close() error {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	err := p.fln.Close()
	p.mu.Lock()
	for nc := range p.conns {
		nc.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
	return err
}

func (p *Proxy) track(nc net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns[nc] = struct{}{}
	return true
}

func (p *Proxy) untrack(nc net.Conn) {
	p.mu.Lock()
	delete(p.conns, nc)
	p.mu.Unlock()
}

func (p *Proxy) serve() {
	defer p.wg.Done()
	for {
		cc, err := p.fln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go p.pump(cc)
	}
}

// pump shuttles bytes between the fault-wrapped client connection and a
// clean upstream connection, propagating per-direction EOF so pipelined
// half-closed exchanges still work.
func (p *Proxy) pump(cc net.Conn) {
	defer p.wg.Done()
	uc, err := net.Dial("tcp", p.target)
	if err != nil {
		cc.Close()
		return
	}
	if !p.track(cc) || !p.track(uc) {
		cc.Close()
		uc.Close()
		p.untrack(cc)
		return
	}
	var cwg sync.WaitGroup
	cwg.Add(2)
	go func() {
		defer cwg.Done()
		//lfcheck:allow conndeadline the proxy must tolerate injected stalls of any length; Proxy.Close closes both conns, which unblocks the copy
		io.Copy(uc, cc) // client → server, faults on the read side
		if tc, ok := uc.(*net.TCPConn); ok {
			tc.CloseWrite()
		} else {
			uc.Close()
		}
	}()
	go func() {
		defer cwg.Done()
		//lfcheck:allow conndeadline the proxy must tolerate injected stalls of any length; Proxy.Close closes both conns, which unblocks the copy
		io.Copy(cc, uc) // server → client, faults on the write side
		if fc, ok := cc.(*Conn); ok {
			fc.CloseWrite()
		} else {
			cc.Close()
		}
	}()
	cwg.Wait()
	cc.Close()
	uc.Close()
	p.untrack(cc)
	p.untrack(uc)
}

// ChaosFaults is the standard linearizability-preserving fault mix used
// by the chaos suites (internal/server's TestChaos* tests):
// jitter, split frames, mid-command resets, rare slow-loris stalls, and
// accept-time failures — everything except corruption, which the
// protocol cannot detect and which therefore invalidates history
// checking (see DESIGN.md §8).
func ChaosFaults(seed int64) Faults {
	return Faults{
		Seed:             seed,
		LatencyProb:      0.05,
		MaxLatency:       2 * time.Millisecond,
		PartialReadProb:  0.15,
		PartialWriteProb: 0.15,
		ResetProb:        0.01,
		StallProb:        0.002,
		Stall:            60 * time.Millisecond,
		AcceptFailProb:   0.05,
	}
}

// CorruptionFaults is ChaosFaults plus byte corruption, for runs that
// assert survival (no panics, no leaks, counters move) rather than
// linearizability.
func CorruptionFaults(seed int64) Faults {
	f := ChaosFaults(seed)
	f.CorruptProb = 0.05
	return f
}
