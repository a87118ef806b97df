// Package server implements valoisd, a TCP key-value server whose entire
// storage engine is the paper's §4 lock-free dictionary structures. Keys
// are sharded by hash across N independent dictionary instances so that
// the lock-free structures — not the accept loop or any server-side lock —
// are where concurrent operations meet; each connection is served by its
// own goroutine, exactly the paper's process-per-operation model with
// goroutines standing in for processes.
//
// Two wire protocols from internal/proto are served, the memcached-style
// text protocol and RESP, detected per connection (Config.Protocol).
// The backend structure (sorted list, hash table, skip list, or BST) and
// the memory mode (gc, rc — §5 — or ebr) are chosen at construction,
// making the server a network-facing harness for comparing the paper's
// structures under real socket-driven load (bench/).
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"valois/internal/proto"

	"valois/internal/bst"
	"valois/internal/dict"
	"valois/internal/mm"
	"valois/internal/persist"
	"valois/internal/primitive"
	"valois/internal/skiplist"
)

// ErrServerClosed is returned by Serve after Shutdown begins.
var ErrServerClosed = errors.New("server: closed")

// Backend names a dictionary structure from §4 of the paper.
const (
	BackendList     = "list"     // §4.1 single sorted lock-free list
	BackendHash     = "hash"     // §4.1 hash table of sorted lists
	BackendSkipList = "skiplist" // §4.1 lock-free skip list
	BackendBST      = "bst"      // §4.2 binary search tree with aux nodes
)

// Backends lists the valid Config.Backend values.
func Backends() []string {
	return []string{BackendList, BackendHash, BackendSkipList, BackendBST}
}

// Config parameterizes a Server.
type Config struct {
	// Backend selects the §4 structure each shard instantiates:
	// "list", "hash", "skiplist" (default), or "bst".
	Backend string
	// Mode selects cell reclamation: "gc" (default), "rc" (§5), or
	// "ebr" (epoch-based reclamation over the §5 free list).
	Mode string
	// Shards is the number of independent dictionary instances keys are
	// hashed across. Default 16.
	Shards int
	// Buckets is the bucket count per shard for the hash backend.
	// Default 1024.
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

// ordered is the iteration surface shared by the three ordered backends;
// the hash backend does not provide it and RANGE is rejected there.
type ordered interface {
	RangeFrom(start string, f func(key string, value []byte) bool)
}

// shard is one independent dictionary instance.
type shard struct {
	d     dict.Dictionary[string, []byte]
	ord   ordered         // nil for the hash backend
	mem   func() mm.Stats // §5 manager counters
	size  func() int      // snapshot item count
	close func()          // release cells (required under RC)

	// snap streams the shard's live bindings through emit (stopping when
	// emit returns false) via the backend's lock-free cursor scan; the
	// hash backend iterates bucket by bucket.
	snap func(emit func(key string, value []byte) bool)

	// logMu serializes apply+append on the mutation path when
	// persistence is enabled, so the log's record order matches the
	// linearization order of same-shard mutations (see persist.go).
	logMu sync.Mutex
}

// Server is a valoisd instance. Create with New, start with Serve or
// ListenAndServe, stop with Shutdown.
type Server struct {
	cfg    Config
	mode   mm.Mode
	shards []*shard
	start  time.Time

	mu      sync.Mutex
	ln      net.Listener
	conns   map[*conn]struct{}
	closing bool

	wg sync.WaitGroup // live connection handlers

	closeShards sync.Once

	// Durability state (see persist.go); log is nil when PersistDir is
	// empty and every field below then stays at its zero value.
	log          *persist.Log
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

// New returns a configured server with its shards allocated.
func New(cfg Config) (*Server, error) {
	if cfg.Backend == "" {
		cfg.Backend = BackendSkipList
	}
	if cfg.Mode == "" {
		cfg.Mode = "gc"
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	if cfg.Buckets <= 0 {
		cfg.Buckets = 1024
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
	mode, ok := mm.ParseMode(cfg.Mode)
	if !ok {
		return nil, fmt.Errorf("server: unknown memory mode %q (want gc, rc, or ebr)", cfg.Mode)
	}
	s := &Server{
		cfg:      cfg,
		mode:     mode,
		shards:   make([]*shard, cfg.Shards),
		start:    time.Now(),
		conns:    make(map[*conn]struct{}),
		snapStop: make(chan struct{}),
	}
	for i := range s.shards {
		sh, err := newShard(cfg, mode)
		if err != nil {
			return nil, err
		}
		s.shards[i] = sh
	}
	if cfg.PersistDir != "" {
		if err := s.openPersist(); err != nil {
			s.closeShards.Do(func() {
				for _, sh := range s.shards {
					sh.close()
				}
			})
			return nil, err
		}
	}
	return s, nil
}

func newShard(cfg Config, mode mm.Mode) (*shard, error) {
	switch cfg.Backend {
	case BackendList:
		d := dict.NewSortedList[string, []byte](mode)
		return &shard{d: d, ord: d, snap: snapOrdered(d), mem: d.MemStats, size: d.Len, close: d.Close}, nil
	case BackendHash:
		d := dict.NewHash[string, []byte](cfg.Buckets, mode, dict.HashString)
		return &shard{d: d, snap: snapHash(d), mem: d.MemStats, size: d.Len, close: d.Close}, nil
	case BackendSkipList:
		d := skiplist.New[string, []byte](mode)
		return &shard{d: d, ord: d, snap: snapOrdered(d), mem: d.MemStats, size: d.Len, close: d.Close}, nil
	case BackendBST:
		d := bst.New[string, []byte](mode)
		return &shard{d: d, ord: d, snap: snapOrdered(d), mem: d.MemStats, size: d.Len, close: d.Close}, nil
	default:
		return nil, fmt.Errorf("server: unknown backend %q (want one of %v)", cfg.Backend, Backends())
	}
}

// snapOrdered scans an ordered backend from the smallest key — one
// traversal-consistent cursor walk (Fig 12/13 cursor plumbing).
func snapOrdered(o ordered) func(func(string, []byte) bool) {
	return func(emit func(string, []byte) bool) {
		o.RangeFrom("", emit)
	}
}

// snapHash scans the hash backend bucket by bucket; each bucket is a
// sorted list with the same cursor-scan guarantees, so the snapshot is
// per-bucket consistent (global order across buckets is irrelevant — the
// snapshot is a set of SET records).
func snapHash(h *dict.Hash[string, []byte]) func(func(string, []byte) bool) {
	return func(emit func(string, []byte) bool) {
		for i := 0; i < h.NumBuckets(); i++ {
			cont := true
			h.Bucket(i).RangeFrom("", func(k string, v []byte) bool {
				cont = emit(k, v)
				return cont
			})
			if !cont {
				return
			}
		}
	}
}

// Ordered reports whether the configured backend supports RANGE.
func (s *Server) Ordered() bool { return s.shards[0].ord != nil }

// Recovery reports what New recovered from PersistDir (zero value when
// persistence is disabled or the directory was empty).
func (s *Server) Recovery() persist.RecoveryInfo { return s.recovery }

// shardIndex hashes a key to its shard's index.
func (s *Server) shardIndex(key string) int {
	return int(dict.HashString(key) % uint64(len(s.shards)))
}

// shardFor hashes a key to its shard.
func (s *Server) shardFor(key string) *shard {
	return s.shards[s.shardIndex(key)]
}

// set is an upsert: the paper's Insert (Figure 12) refuses duplicate keys
// rather than replacing, so SET loops delete-then-insert until its insert
// wins. Each iteration is lock-free; the loop retries only when another
// goroutine re-inserted the key in the window, so it terminates unless the
// key is under perpetual contention from other writers. Retries back off
// exponentially (§2.1): when several connections SET the same hot key,
// immediate retries just feed each other's delete-then-insert windows.
func (sh *shard) set(key string, value []byte) {
	var backoff primitive.Backoff
	for {
		if sh.d.Insert(key, value) {
			return
		}
		sh.d.Delete(key)
		backoff.Wait()
	}
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
// is returned. After the handlers drain the shards are closed, returning
// their cells to the §5 managers (observable as mm_reclaims under RC).
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
	s.closeShards.Do(func() {
		for _, sh := range s.shards {
			sh.close()
		}
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
// per-verb counters, per-shard item counts, and the summed §5 memory
// manager counters.
func (s *Server) Stats() []Stat {
	s.mu.Lock()
	currConns := len(s.conns)
	s.mu.Unlock()

	items := 0
	perShard := make([]int, len(s.shards))
	var mem mm.Stats
	for i, sh := range s.shards {
		perShard[i] = sh.size()
		items += perShard[i]
		mem.Add(sh.mem())
	}

	n := func(v int64) string { return fmt.Sprintf("%d", v) }
	stats := []Stat{
		{"backend", s.cfg.Backend},
		{"mode", s.cfg.Mode},
		{"shards", n(int64(len(s.shards)))},
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
		{"curr_items", n(int64(items))},
		{"mm_allocs", n(mem.Allocs)},
		{"mm_reclaims", n(mem.Reclaims)},
		{"mm_live", n(mem.Live())},
		{"mm_created", n(mem.Created)},
		// Free-list behavior (all zero under mode=gc, which has no free
		// list): pops/pushes are the Fig 17/18 traffic, grows the arena
		// growth events, steals the cross-stripe pops, and stripes the
		// total stripe count across shards.
		{"mm_pops", n(mem.Pops)},
		{"mm_pushes", n(mem.Pushes)},
		{"mm_grows", n(mem.Grows)},
		{"mm_steals", n(mem.Steals)},
		{"mm_stripes", n(int64(mem.Stripes))},
		// Epoch-based reclamation gauges (zero under gc and rc): the
		// current epoch and the limbo population, summed across shards —
		// activity indicators, not exact globals.
		{"mm_epoch", n(mem.Epoch)},
		{"mm_limbo", n(mem.Limbo)},
	}
	stats = append(stats, s.persistStats()...)
	for i, c := range perShard {
		stats = append(stats, Stat{fmt.Sprintf("shard%d_items", i), n(int64(c))})
	}
	return stats
}

// rangeMerged returns the count smallest items with key ≥ start across all
// shards, in key order; count ≥ 1 (proto rejects anything else). Each
// shard is independently sorted and a key lives in exactly one shard, so
// the scan carries one max-heap of at most count candidates across the
// shards: once it is full, an item enters only by evicting the largest
// candidate, and a shard's scan stops at its first key that cannot — every
// later key of that shard is larger still. On hash-spread keys that
// visits about count·H(shards) items, not count·shards, each for
// O(log count); the heap grows with the items found, never from the
// client's count. (The heap is hand-rolled because container/heap would
// box every kv it is handed.)
func (s *Server) rangeMerged(start string, count int) []kv {
	var h []kv // max-heap on key
	visit := func(k string, v []byte) bool {
		switch {
		case len(h) < count:
			h = append(h, kv{k, v})
			siftUp(h, len(h)-1)
		case k >= h[0].key:
			return false
		default:
			h[0] = kv{k, v}
			siftDown(h, 0)
		}
		return true
	}
	for _, sh := range s.shards {
		sh.ord.RangeFrom(start, visit)
	}
	// Heapsort the survivors in place: move the maximum behind the
	// shrinking heap until the slice is ascending.
	for n := len(h) - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		siftDown(h[:n], 0)
	}
	return h
}

func siftUp(h []kv, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].key >= h[i].key {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func siftDown(h []kv, i int) {
	for {
		big := 2*i + 1
		if big >= len(h) {
			return
		}
		if r := big + 1; r < len(h) && h[r].key > h[big].key {
			big = r
		}
		if h[i].key >= h[big].key {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

type kv struct {
	key   string
	value []byte
}
