// Command valoisd serves the paper's §4 lock-free dictionaries over TCP
// with the memcached-style text protocol and the RESP protocol of
// internal/proto (auto-detected per connection by default). All keys live
// in one dictionary instance; the backend structure (hash or skiplist)
// and the memory mode (gc or ebr) are flags, so the same daemon
// compares every served structure × mode combination under real network
// load (see bench/).
//
// Usage:
//
//	valoisd [-addr :11311] [-backend skiplist] [-mode gc] [-buckets 16384]
//	        [-protocol auto|text|resp] [-pprof ADDR]
//	        [-aof -data-dir DIR [-fsync always|everysec|no] [-snapshot-interval 5m]]
//
// The Go runtime reads the GOMAXPROCS environment variable; the startup
// log line reports the value in effect.
//
// With -aof, every mutation is appended to an append-only log under
// -data-dir and state is recovered from it (latest snapshot + log tail)
// at startup; -snapshot-interval > 0 compacts the log in the background
// with lock-free cursor-scan snapshots that never block writers.
//
// -pprof starts a net/http/pprof listener on ADDR (for example
// "127.0.0.1:6060") with mutex and block profiling enabled, so serving
// hot paths can be profiled under live load.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes,
// in-flight requests drain, the log is flushed and fsynced, and the
// process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"valois/internal/proto"
	"valois/internal/server"
)

// shutdownGrace bounds how long a graceful shutdown waits for in-flight
// requests before forcing connections closed.
const shutdownGrace = 10 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stderr, nil))
}

// run is main minus the process exit, for tests: onReady (may be nil)
// receives the bound listener address once the server is accepting.
func run(args []string, logw io.Writer, onReady func(net.Addr)) int {
	fs := flag.NewFlagSet("valoisd", flag.ContinueOnError)
	fs.SetOutput(logw)
	var (
		addr      = fs.String("addr", ":11311", "listen address")
		backend   = fs.String("backend", server.BackendSkipList, "dictionary structure: "+strings.Join(server.Backends(), ", "))
		mode      = fs.String("mode", "gc", "memory mode: "+strings.Join(server.Modes(), ", ")+" (ebr: epoch-based reclamation)")
		buckets   = fs.Int("buckets", 16384, "hash table bucket count (hash backend only)")
		idleTO    = fs.Duration("idle-timeout", server.DefaultIdleTimeout, "per-connection idle deadline (negative disables)")
		readTO    = fs.Duration("read-timeout", server.DefaultReadTimeout, "per-command read deadline (negative disables)")
		writeTO   = fs.Duration("write-timeout", server.DefaultWriteTimeout, "per-reply write deadline (negative disables)")
		maxConns  = fs.Int("max-conns", 0, "max concurrent connections, over-cap dials are rejected (0 = unlimited)")
		protocol  = fs.String("protocol", proto.ProtocolAuto, "wire protocol: auto (sniff per connection), text, or resp")
		pprofAddr = fs.String("pprof", "", "if set, serve net/http/pprof on this address with mutex/block profiling")
		aof       = fs.Bool("aof", false, "enable the append-only log (requires -data-dir)")
		dataDir   = fs.String("data-dir", "", "directory for the append-only log and snapshots")
		fsync     = fs.String("fsync", "everysec", "AOF fsync policy: always, everysec, or no")
		snapEvery = fs.Duration("snapshot-interval", 0, "background snapshot compaction interval (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *aof && *dataDir == "" {
		fmt.Fprintln(logw, "valoisd: -aof requires -data-dir")
		return 2
	}

	cfg := server.Config{
		Backend:      *backend,
		Mode:         *mode,
		Buckets:      *buckets,
		IdleTimeout:  *idleTO,
		ReadTimeout:  *readTO,
		WriteTimeout: *writeTO,
		MaxConns:     *maxConns,
		Protocol:     *protocol,
		Logf:         func(format string, a ...any) { fmt.Fprintf(logw, "valoisd: "+format+"\n", a...) },
	}
	if *aof {
		cfg.PersistDir = *dataDir
		cfg.FsyncPolicy = *fsync
		cfg.SnapshotInterval = *snapEvery
	}
	srv, err := server.New(cfg)
	if err != nil {
		fmt.Fprintln(logw, "valoisd:", err)
		return 1
	}
	if *aof {
		rec := srv.Recovery()
		fmt.Fprintf(logw, "valoisd: durability on (dir=%s fsync=%s snapshot-interval=%s): recovered %d records (snapshot gen %d: %d, aof tail: %d, torn tail: %v)\n",
			*dataDir, *fsync, *snapEvery, rec.Replayed(), rec.SnapshotGen, rec.SnapshotRecords, rec.TailRecords, rec.TornTail)
	}
	if *pprofAddr != "" {
		stopProfiler, err := startProfiler(*pprofAddr, logw)
		if err != nil {
			fmt.Fprintln(logw, "valoisd:", err)
			return 1
		}
		defer stopProfiler()
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(logw, "valoisd:", err)
		return 1
	}
	fmt.Fprintf(logw, "valoisd: serving on %s (backend=%s mode=%s protocol=%s gomaxprocs=%d)\n",
		ln.Addr(), *backend, *mode, *protocol, runtime.GOMAXPROCS(0))
	if onReady != nil {
		onReady(ln.Addr())
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigc)
	shutdownErr := make(chan error, 1)
	go func() {
		sig := <-sigc
		fmt.Fprintf(logw, "valoisd: %s received, draining connections\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()

	if err := srv.Serve(ln); !errors.Is(err, server.ErrServerClosed) {
		fmt.Fprintln(logw, "valoisd:", err)
		return 1
	}
	if err := <-shutdownErr; err != nil {
		fmt.Fprintln(logw, "valoisd: shutdown forced:", err)
		return 1
	}
	fmt.Fprintln(logw, "valoisd: drained, bye")
	return 0
}
