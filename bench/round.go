package main

import (
	"context"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"valois/bench/loadgen"
)

// conns is the number of client connections, one goroutine each: the
// host's nproc, so generator and server share the CPUs one to one.
const conns = 2

// warmup is how long both connections run unmeasured after the oracle
// pass, so heap, free lists and socket buffers reach their steady sizes.
const warmup = 500 * time.Millisecond

// windowsPerRound is how many back-to-back measured windows one server
// gets. This host's CPUs change speed by up to 1.8x in phases of 2 to 7 s
// with no steal time (a bare multiply loop shows it), so a run is cut into
// windows short enough to fall inside one phase, and each timing metric
// is read off the windows on its good side (see quartile).
const windowsPerRound = 3

// window is one measured interval of a round.
type window struct {
	elapsed   time.Duration // start to last reply
	ops       int64
	opsPerS   float64
	lat       []int64 // batch round trips in ns, sorted
	serverCPU time.Duration
}

// round is what one fresh valoisd, set up, checked and driven for
// windowsPerRound measured windows, yields.
type round struct {
	setup      time.Duration // spawn → serving → prefill acknowledged (durable: → restart → recovered → read back)
	windows    []window
	elapsed    time.Duration  // all windows
	counts     loadgen.Counts // all windows
	serverCPU  time.Duration  // all windows
	loadgenCPU time.Duration
	peakRSS    int64
	stealFrac  float64
	before     map[string]int64 // STATS at window start
	after      map[string]int64 // STATS at window end
	attempted  int64            // every operation sent, set-up and oracle included
	failed     int64            // operations whose reply or accounting was wrong
}

// instance is a valoisd that has been set up for workload traffic:
// started, prefilled and, for a durable workload, restarted from its log
// and read back.
type instance struct {
	srv       *server
	conn      *loadgen.Conn // connection 0
	dataDir   string
	attempted int64 // operations sent on a connection set-up already closed
}

// close ends the instance: connection, process, data directory.
func (in *instance) close() {
	if in.conn != nil {
		in.attempted += in.conn.Counts.Ops()
		in.conn.Close()
		in.conn = nil
	}
	if in.srv != nil {
		in.srv.kill()
	}
	if in.dataDir != "" {
		os.RemoveAll(in.dataDir)
	}
}

// setUp starts a valoisd for w and brings it to the state traffic starts
// from. What it takes is the setup_s metric: spawn → "serving on" →
// prefill acknowledged and, on a durable workload, SIGTERM-drain → second
// boot that recovers the prefill from disk → full read-back. The instance
// is returned even on error, closed, for its attempted count.
func setUp(ctx context.Context, valoisd, tmpDir string, w *loadgen.Workload, tab *loadgen.Tables) (in *instance, took time.Duration, failed int64, err error) {
	in = &instance{}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	start := time.Now()
	if w.Durable {
		if in.dataDir, err = os.MkdirTemp(tmpDir, "data-"); err != nil {
			return in, 0, 1, err
		}
	}
	boot := func() error {
		if in.srv, err = startServer(ctx, valoisd, w.ServerArgs(in.dataDir)); err != nil {
			return err
		}
		in.conn, err = loadgen.Dial(in.srv.addr, tab)
		return err
	}
	if err = boot(); err != nil {
		return in, 0, 1, err
	}
	if err = loadgen.Prefill(in.conn, w); err != nil {
		return in, 0, 1, fmt.Errorf("prefill: %w", err)
	}
	if w.Durable {
		// The durable workload's set-up is also its recovery check.
		in.attempted += in.conn.Counts.Ops()
		in.conn.Close()
		in.conn = nil
		if err = in.srv.stop(); err != nil {
			return in, 0, 1, err
		}
		if err = boot(); err != nil {
			return in, 0, 1, err
		}
		st, err := in.conn.Stats()
		if err != nil {
			return in, 0, 1, err
		}
		if got := st["recovery_replayed"]; got != int64(w.Prefill) {
			return in, 0, abs(got - int64(w.Prefill)), fmt.Errorf("recovery replayed %d records, want %d", got, w.Prefill)
		}
		if err = loadgen.ReadBack(in.conn, w); err != nil {
			return in, 0, 1, fmt.Errorf("read-back after restart: %w", err)
		}
	}
	return in, time.Since(start), 0, nil
}

// runRound measures windowsPerRound windows of workload w, each of the
// given length, against a fresh valoisd. An error means the round could
// not be completed or a reply was wrong; the round then counts as failed
// whatever it measured.
func runRound(ctx context.Context, valoisd, tmpDir string, w *loadgen.Workload, tab *loadgen.Tables, seed int64, windowLen time.Duration) (r round, err error) {
	in, took, failed, err := setUp(ctx, valoisd, tmpDir, w, tab)
	if err != nil {
		r.attempted, r.failed = max(in.attempted, failed), failed
		return r, err
	}
	r.setup = took
	srv := in.srv
	clients := [conns]*loadgen.Conn{in.conn}
	in.conn = nil // clients owns it from here
	// Every way out of a failed round still reports what was attempted and
	// counts at least the operation that failed.
	defer func() {
		for _, c := range clients {
			if c != nil {
				r.attempted += c.Counts.Ops()
				c.Close()
			}
		}
		in.close()
		r.attempted += in.attempted
		if err != nil {
			r.failed = max(r.failed, 1)
			r.attempted = max(r.attempted, r.failed)
		}
	}()

	// Connection 0 alone, every reply checked against the model.
	var streams [conns]*loadgen.Stream
	for i := range streams {
		streams[i] = loadgen.NewStream(w, seed, i)
	}
	if err = loadgen.Oracle(clients[0], w, streams[0], loadgen.NewModel(w), w.OracleOps); err != nil {
		return r, fmt.Errorf("oracle pass: %w", err)
	}
	for i := 1; i < conns; i++ {
		if clients[i], err = loadgen.Dial(srv.addr, tab); err != nil {
			return r, err
		}
	}

	drive := func(d time.Duration, lats *[conns][]int64) (time.Duration, float64, error) {
		var (
			wg      sync.WaitGroup
			errs    [conns]error
			elapsed [conns]time.Duration
			done    [conns]int64
		)
		begin := time.Now()
		for i := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var lat *[]int64
				if lats != nil {
					lat = &lats[i]
				}
				ops := clients[i].Counts.Ops()
				errs[i] = loadgen.Run(ctx, clients[i], w, streams[i], begin.Add(d), lat)
				elapsed[i] = time.Since(begin)
				done[i] = clients[i].Counts.Ops() - ops
			}()
		}
		wg.Wait()
		var rate float64
		for i := range clients {
			if errs[i] != nil {
				return 0, 0, fmt.Errorf("connection %d: %w", i, errs[i])
			}
			rate += float64(done[i]) / elapsed[i].Seconds()
		}
		return slices.Max(elapsed[:]), rate, nil
	}
	if _, _, err = drive(warmup, nil); err != nil {
		return r, fmt.Errorf("warm-up: %w", err)
	}

	// The measured windows, bracketed by STATS and CPU readings taken
	// while no request is in flight.
	if r.before, err = clients[0].Stats(); err != nil {
		return r, err
	}
	counted := func() (sum loadgen.Counts) {
		for _, c := range clients {
			sum = sum.Add(c.Counts)
		}
		return sum
	}
	sent := counted()
	pid := srv.cmd.Process.Pid
	self0 := selfCPU()
	total0, steal0, err := hostCPU()
	if err != nil {
		return r, err
	}
	for len(r.windows) < windowsPerRound {
		var lats [conns][]int64
		for i := range lats {
			lats[i] = make([]int64, 0, 1<<15)
		}
		var win window
		cpu0, err := processCPU(pid)
		if err != nil {
			return r, err
		}
		ops := counted().Ops()
		if win.elapsed, win.opsPerS, err = drive(windowLen, &lats); err != nil {
			return r, fmt.Errorf("measured window: %w", err)
		}
		cpu1, err := processCPU(pid)
		if err != nil {
			return r, err
		}
		win.ops, win.serverCPU = counted().Ops()-ops, cpu1-cpu0
		for _, l := range lats {
			win.lat = append(win.lat, l...)
		}
		slices.Sort(win.lat)
		r.windows = append(r.windows, win)
		r.elapsed += win.elapsed
		r.serverCPU += win.serverCPU
	}
	r.counts = counted().Sub(sent)
	r.loadgenCPU = selfCPU() - self0
	if total1, steal1, err := hostCPU(); err == nil && total1 > total0 {
		r.stealFrac = float64(steal1-steal0) / float64(total1-total0)
	}
	if r.peakRSS, err = peakRSS(pid); err != nil {
		return r, err
	}
	if r.after, err = clients[0].Stats(); err != nil {
		return r, err
	}

	if r.failed, err = checkAccounting(w, r.counts, r.before, r.after); err != nil {
		return r, err
	}
	for i, c := range clients {
		r.attempted += c.Counts.Ops()
		c.Close()
		clients[i] = nil
	}
	return r, srv.stop()
}

// checkAccounting compares what the clients sent and were told in the
// window with what the server counted over the same window. Every
// difference is that many failed operations.
func checkAccounting(w *loadgen.Workload, c loadgen.Counts, before, after map[string]int64) (failed int64, err error) {
	var msgs []string
	want := func(stat string, n int64) {
		if d := after[stat] - before[stat]; d != n {
			failed += abs(d - n)
			msgs = append(msgs, fmt.Sprintf("%s moved by %d, clients count %d", stat, d, n))
		}
	}
	want("cmd_get", c.Gets)
	want("cmd_set", c.Sets)
	want("cmd_delete", c.Dels)
	want("cmd_range", c.Ranges)
	want("get_hits", c.GetHits)
	want("delete_hits", c.DelHits)
	want("protocol_errors", 0)
	want("persist_errors", 0)
	if w.Durable {
		// One log record per mutation: every SET, and every DEL that hit.
		want("aof_records", c.Sets+c.DelHits)
	}
	if failed > 0 {
		return failed, fmt.Errorf("accounting: %v", msgs)
	}
	return 0, nil
}

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
