// Package server implements valoisd, a TCP key-value server whose entire
// storage engine is one of the paper's §4 lock-free dictionary structures.
// Every connection operates on the same dictionary instance, so the
// lock-free structure — not the accept loop, a partitioning layer or any
// server-side lock — is where concurrent operations meet; each connection
// is served by its own goroutine, exactly the paper's process-per-operation
// model with goroutines standing in for processes.
//
// Two wire protocols from internal/proto are served, the memcached-style
// text protocol and RESP, detected per connection (Config.Protocol).
// The backend structure (hash table, skip list, or BST) and the memory
// mode (gc or ebr) are chosen at construction, making the server a
// network-facing harness for comparing the paper's structures under real
// socket-driven load (bench/).
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"valois/internal/proto"

	"valois/internal/bst"
	"valois/internal/dict"
	"valois/internal/mm"
	"valois/internal/persist"
	"valois/internal/skiplist"
)

// ErrServerClosed is returned by Serve after Shutdown begins.
var ErrServerClosed = errors.New("server: closed")

// Backend names a dictionary structure from §4 of the paper.
const (
	BackendHash     = "hash"     // §4.1 hash table of sorted lists
	BackendSkipList = "skiplist" // §4.1 lock-free skip list
	BackendBST      = "bst"      // §4.2 binary search tree with aux nodes
)

// Backends lists the valid Config.Backend values.
func Backends() []string {
	return []string{BackendHash, BackendSkipList, BackendBST}
}

// Modes lists the valid Config.Mode values: the Go collector, and
// epoch-based reclamation over the §5 free list. The paper's §5
// reference counts (mm.ModeRC) are not served: they pay a SafeRead per
// hop that epochs remove.
func Modes() []string {
	return []string{"gc", "ebr"}
}

// Config parameterizes a Server.
type Config struct {
	// Backend selects the §4 structure the server stores its keys in:
	// "hash", "skiplist" (default), or "bst".
	Backend string
	// Mode selects cell reclamation: "gc" (default) or "ebr"
	// (epoch-based reclamation over the §5 free list).
	Mode string
	// Buckets is the hash backend's bucket count. Default 16384.
	Buckets int

	// IdleTimeout bounds how long a connection may sit between requests
	// (waiting for the first byte of the next command). Expiry counts as
	// conn_timeouts and closes the connection. Default 5m; negative
	// disables.
	IdleTimeout time.Duration
	// ReadTimeout bounds how long one request may take to arrive once
	// its first byte has been read — the slow-loris guard: a client
	// trickling a command one byte at a time is cut when the whole
	// command has not arrived in time. Default 30s; negative disables.
	ReadTimeout time.Duration
	// WriteTimeout bounds each reply flush, so a client that stops
	// reading cannot pin a handler goroutine on a full socket buffer.
	// Default 30s; negative disables.
	WriteTimeout time.Duration
	// MaxConns caps concurrently served connections. Connections over
	// the cap are answered with SERVER_ERROR and closed (counted as
	// conn_rejected); the accept loop itself never blocks on them.
	// Default 0 = unlimited.
	MaxConns int

	// Protocol selects the wire protocol served: proto.ProtocolText,
	// proto.ProtocolRESP, or proto.ProtocolAuto (the default), which
	// sniffs each connection from its first byte — '*' opens a RESP
	// array, anything else is the text protocol. (A RESP client that
	// opens with an inline command is indistinguishable from text; use
	// the forced setting for inline-only clients.)
	Protocol string

	// PersistDir, when non-empty, enables durability: state is recovered
	// from this directory at New (latest snapshot + append-only log
	// tail) and every applied mutation is appended to the log from then
	// on. Empty (the default) keeps the server purely in-memory.
	PersistDir string
	// FsyncPolicy selects when the append-only log is fsynced:
	// "always" (before each mutation's reply), "everysec" (background,
	// the default), or "no" (leave it to the OS). Only meaningful with
	// PersistDir set.
	FsyncPolicy string
	// SnapshotInterval, when positive, runs background snapshot
	// compaction every interval while serving. Zero disables; the log
	// then grows until Snapshot is called explicitly. Only meaningful
	// with PersistDir set.
	SnapshotInterval time.Duration

	// Logf, if set, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

// Default connection deadlines (see Config).
const (
	DefaultIdleTimeout  = 5 * time.Minute
	DefaultReadTimeout  = 30 * time.Second
	DefaultWriteTimeout = 30 * time.Second
)

// ordered is the iteration surface of the skip list and the tree; the
// hash backend does not provide it and RANGE is rejected there.
type ordered interface {
	RangeFrom(start string, f func(key string, value []byte) bool)
}

// store is the server's one dictionary instance: the part of the §4
// dictionary (dict.Dictionary) the server calls, and the surface every
// served backend adds to it.
type store interface {
	Find(key string) ([]byte, bool)
	Upsert(key string, value []byte)
	Delete(key string) bool
	// Range streams the live bindings through f until f returns false —
	// the snapshot scan. Order is the backend's own (bucket order for
	// the hash backend); a snapshot is a set of SET records.
	Range(f func(key string, value []byte) bool)
	Len() int
	MemStats() mm.Stats // §5 manager counters
	Close()
}

// logStripes is the number of ordering locks (see Server.logMu).
const logStripes = 16

// Server is a valoisd instance. Create with New, start with Serve or
// ListenAndServe, stop with Shutdown.
type Server struct {
	cfg   Config
	mode  mm.Mode
	store store
	start time.Time

	mu      sync.Mutex
	ln      net.Listener
	conns   map[*conn]struct{}
	closing bool

	wg sync.WaitGroup // live connection handlers

	closeStore sync.Once

	// Durability state (see persist.go); log is nil when PersistDir is
	// empty and every field below then stays at its zero value.
	log *persist.Log
	// logMu serializes apply+append on the mutation path when
	// persistence is enabled, so the log's record order matches the
	// linearization order of same-key mutations (see persist.go). A key
	// always takes the stripe logStripe picks, so mutations of different
	// stripes never wait for each other.
	logMu        [logStripes]sync.Mutex
	recovery     persist.RecoveryInfo
	replayed     atomic.Int64
	persistErrs  atomic.Int64
	snapStop     chan struct{}
	snapStopOnce sync.Once
	snapStart    sync.Once
	snapWG       sync.WaitGroup

	// panicHook, when set (tests only), runs inside dispatch so panic
	// isolation can be exercised without a real server bug.
	panicHook func(cmd proto.Command)

	// Counters exposed by STATS.
	totalConns   atomic.Int64
	connTimeouts atomic.Int64
	connResets   atomic.Int64
	connRejected atomic.Int64
	connPanics   atomic.Int64
	protoErrs    atomic.Int64
	cmdGet       atomic.Int64
	cmdSet       atomic.Int64
	cmdDelete    atomic.Int64
	cmdRange     atomic.Int64
	cmdStats     atomic.Int64
	getHits      atomic.Int64
	getMisses    atomic.Int64
	deleteHits   atomic.Int64
	deleteMisses atomic.Int64

	// Wire-level counters (the batched serving path, conn.go/batch.go).
	batches    atomic.Int64 // batches of size ≥ 2 executed
	batchedOps atomic.Int64 // commands that rode in those batches
	bytesIn    atomic.Int64 // bytes read off client sockets
	bytesOut   atomic.Int64 // bytes written to client sockets
}

// New returns a configured server with its dictionary allocated.
func New(cfg Config) (*Server, error) {
	if cfg.Backend == "" {
		cfg.Backend = BackendSkipList
	}
	if cfg.Mode == "" {
		cfg.Mode = "gc"
	}
	if cfg.Buckets <= 0 {
		cfg.Buckets = 16384
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = DefaultIdleTimeout
	}
	if cfg.ReadTimeout == 0 {
		cfg.ReadTimeout = DefaultReadTimeout
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = DefaultWriteTimeout
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	switch cfg.Protocol {
	case "":
		cfg.Protocol = proto.ProtocolAuto
	case proto.ProtocolText, proto.ProtocolRESP, proto.ProtocolAuto:
	default:
		return nil, fmt.Errorf("server: unknown protocol %q (want text, resp, or auto)", cfg.Protocol)
	}
	if !slices.Contains(Modes(), cfg.Mode) {
		return nil, fmt.Errorf("server: unknown memory mode %q (want one of %v)", cfg.Mode, Modes())
	}
	mode, _ := mm.ParseMode(cfg.Mode)
	st, err := newStore(cfg, mode)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		mode:     mode,
		store:    st,
		start:    time.Now(),
		conns:    make(map[*conn]struct{}),
		snapStop: make(chan struct{}),
	}
	if cfg.PersistDir != "" {
		if err := s.openPersist(); err != nil {
			s.store.Close()
			return nil, err
		}
	}
	return s, nil
}

func newStore(cfg Config, mode mm.Mode) (store, error) {
	switch cfg.Backend {
	case BackendHash:
		return dict.NewHash[string, []byte](cfg.Buckets, mode, dict.HashString), nil
	case BackendSkipList:
		return skiplist.New[string, []byte](mode), nil
	case BackendBST:
		return bst.New[string, []byte](mode), nil
	default:
		return nil, fmt.Errorf("server: unknown backend %q (want one of %v)", cfg.Backend, Backends())
	}
}

// Ordered reports whether the configured backend supports RANGE.
func (s *Server) Ordered() bool {
	_, ok := s.store.(ordered)
	return ok
}

// Recovery reports what New recovered from PersistDir (zero value when
// persistence is disabled or the directory was empty).
func (s *Server) Recovery() persist.RecoveryInfo { return s.recovery }

// logStripe picks the key's ordering lock: same key, same stripe.
func logStripe(key string) int {
	return int(dict.HashString(key) % logStripes)
}

// Addr returns the listening address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// ListenAndServe listens on addr and calls Serve.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln, spawning one handler goroutine per
// connection, until Shutdown closes the listener. It always returns a
// non-nil error; after Shutdown the error is ErrServerClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()

	s.snapStart.Do(func() {
		if s.log != nil && s.cfg.SnapshotInterval > 0 {
			s.snapWG.Add(1)
			go s.snapshotLoop()
		}
	})

	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closing := s.closing
			s.mu.Unlock()
			if closing {
				return ErrServerClosed
			}
			return err
		}
		c := &conn{srv: s, nc: nc}
		s.mu.Lock()
		if s.closing {
			s.mu.Unlock()
			nc.Close()
			return ErrServerClosed
		}
		if s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns {
			s.mu.Unlock()
			s.connRejected.Add(1)
			s.wg.Add(1)
			go s.rejectConn(nc) // clean rejection off the accept path
			continue
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.totalConns.Add(1)
		go c.serve()
	}
}

// rejectConn answers a connection over the MaxConns cap: one
// SERVER_ERROR reply under a short write deadline, then close. It runs
// on its own goroutine so a rejected client that refuses to read cannot
// stall the accept loop. Nothing has been read from the connection, so
// auto-detect is impossible; only a forced RESP configuration rejects in
// RESP framing.
func (s *Server) rejectConn(nc net.Conn) {
	defer s.wg.Done()
	nc.SetWriteDeadline(time.Now().Add(time.Second))
	var msg []byte
	if s.cfg.Protocol == proto.ProtocolRESP {
		msg = proto.AppendRESPError(nil, "SERVER_ERROR", "too many connections")
	} else {
		msg = []byte("SERVER_ERROR too many connections\r\n")
	}
	nc.Write(msg)
	nc.Close()
}

// countNetErr classifies a transport error into the connection-health
// counters: deadline expiries are conn_timeouts, anything else except a
// clean EOF is conn_resets (the peer vanished mid-exchange).
func (s *Server) countNetErr(err error) {
	var nerr net.Error
	switch {
	case errors.As(err, &nerr) && nerr.Timeout():
		s.connTimeouts.Add(1)
	case !errors.Is(err, io.EOF):
		s.connResets.Add(1)
	}
}

func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// Shutdown stops the server gracefully: it closes the listener, lets every
// connection finish the request it is currently executing, closes idle
// connections immediately, and waits for all handlers to drain. If ctx
// expires first, remaining connections are closed forcibly and ctx's error
// is returned. After the handlers drain the dictionary is closed, returning
// its cells to the §5 manager.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closing = true
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.beginShutdown()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
		err = ctx.Err()
	}
	// Handlers have drained (or been cut): no more appends are coming.
	// Stop the snapshot loop, then close the log — Close flushes and
	// fsyncs, so a graceful shutdown loses nothing even under fsync=no.
	s.stopSnapshots()
	s.closeStore.Do(func() {
		s.store.Close()
		if s.log != nil {
			if cerr := s.log.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	})
	return err
}

// Stat is one STATS line.
type Stat struct {
	Name  string
	Value string
}

// Stats returns the server's statistics snapshot: identity, connection and
// per-verb counters, the item count, and the §5 memory manager's counters.
func (s *Server) Stats() []Stat {
	s.mu.Lock()
	currConns := len(s.conns)
	s.mu.Unlock()

	mem := s.store.MemStats()

	n := func(v int64) string { return fmt.Sprintf("%d", v) }
	stats := []Stat{
		{"backend", s.cfg.Backend},
		{"mode", s.cfg.Mode},
		{"uptime_seconds", n(int64(time.Since(s.start).Seconds()))},
		{"curr_connections", n(int64(currConns))},
		{"total_connections", n(s.totalConns.Load())},
		{"cmd_get", n(s.cmdGet.Load())},
		{"cmd_set", n(s.cmdSet.Load())},
		{"cmd_delete", n(s.cmdDelete.Load())},
		{"cmd_range", n(s.cmdRange.Load())},
		{"cmd_stats", n(s.cmdStats.Load())},
		{"get_hits", n(s.getHits.Load())},
		{"get_misses", n(s.getMisses.Load())},
		{"delete_hits", n(s.deleteHits.Load())},
		{"delete_misses", n(s.deleteMisses.Load())},
		{"protocol_errors", n(s.protoErrs.Load())},
		// Wire counters: batches of pipelined commands executed as one
		// dispatch, how many commands rode in them, and raw socket bytes
		// in each direction.
		{"batches", n(s.batches.Load())},
		{"batched_ops", n(s.batchedOps.Load())},
		{"bytes_in", n(s.bytesIn.Load())},
		{"bytes_out", n(s.bytesOut.Load())},
		// Connection-health counters (the hardening layer): deadline
		// cuts, peer resets, MaxConns rejections, recovered panics.
		{"conn_timeouts", n(s.connTimeouts.Load())},
		{"conn_resets", n(s.connResets.Load())},
		{"conn_rejected", n(s.connRejected.Load())},
		{"conn_panics", n(s.connPanics.Load())},
		{"curr_items", n(int64(s.store.Len()))},
		{"mm_allocs", n(mem.Allocs)},
		{"mm_reclaims", n(mem.Reclaims)},
		{"mm_live", n(mem.Live())},
		{"mm_created", n(mem.Created)},
		// Free-list behavior (all zero under mode=gc, which has no free
		// list): pops/pushes are the Fig 17/18 traffic, grows the arena
		// growth events, steals the cross-stripe pops, and stripes the
		// manager's free-list stripe count.
		{"mm_pops", n(mem.Pops)},
		{"mm_pushes", n(mem.Pushes)},
		{"mm_grows", n(mem.Grows)},
		{"mm_steals", n(mem.Steals)},
		{"mm_stripes", n(int64(mem.Stripes))},
		// Epoch-based reclamation gauges (zero under gc): the
		// manager's current epoch and its limbo population.
		{"mm_epoch", n(mem.Epoch)},
		{"mm_limbo", n(mem.Limbo)},
	}
	return append(stats, s.persistStats()...)
}

// rangeFrom returns the first count items with key ≥ start, in key order;
// count ≥ 1 (proto rejects anything else). It is the backend's own cursor
// scan, stopped once count items are held: one descent to start, then one
// level-0 hop per item returned plus whatever concurrently deleted cells
// the backend's monotonicity filter skips. The reply grows with the items
// found, never from the client's count.
func (s *Server) rangeFrom(start string, count int) []kv {
	var items []kv
	s.store.(ordered).RangeFrom(start, func(k string, v []byte) bool {
		items = append(items, kv{k, v})
		return len(items) < count
	})
	return items
}

type kv struct {
	key   string
	value []byte
}
