package experiments

// Durability-cost experiment (beyond the paper's E1–E10): the same
// closed-loop SET/GET workload against an in-process valoisd server
// under the three AOF fsync policies, plus the AOF disabled as the
// baseline. The interesting number is the gap: appends happen after the
// lock-free apply under a per-key-stripe mutex, so "aof=off" vs
// "fsync=everysec" prices the append itself and "fsync=always" prices
// the synchronous disk barrier per acknowledged mutation.

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"valois/internal/client"
	"valois/internal/server"
)

// Persist runs the durability-cost experiment (lfbench -e persist).
func Persist(opts Options) Table {
	t := Table{
		ID:    "persist",
		Title: "durability cost: AOF off vs everysec vs always",
		Claim: "appends ride after the lock-free apply, so the AOF prices in as a per-mutation" +
			" encode+write (everysec) or encode+write+fsync (always), not as lost scalability",
		Columns: []string{"config", "ops/s", "p50_us", "p99_us", "aof_records", "aof_fsyncs"},
	}
	arms := []struct {
		name  string
		aof   bool
		fsync string
	}{
		{"aof=off", false, ""},
		{"fsync=everysec", true, "everysec"},
		{"fsync=always", true, "always"},
	}
	for _, arm := range arms {
		row, err := persistArm(arm.name, arm.aof, arm.fsync, opts)
		if err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("%s failed: %v", arm.name, err))
			continue
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"skiplist/gc, 4 closed-loop clients, 50/50 SET/GET over 256 keys; latencies are SET round trips")
	return t
}

func persistArm(name string, aof bool, fsync string, opts Options) ([]string, error) {
	cfg := server.Config{Backend: server.BackendSkipList, Mode: "gc"}
	if aof {
		dir, err := os.MkdirTemp("", "lfbench-persist")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.PersistDir = dir
		cfg.FsyncPolicy = fsync
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	const (
		clients = 4
		keys    = 256
	)
	value := make([]byte, 32)
	deadline := time.Now().Add(opts.duration())
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		ops     int64
		setLats []time.Duration
		armErr  error
	)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(ln.Addr().String(), client.Options{})
			if err != nil {
				mu.Lock()
				armErr = err
				mu.Unlock()
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(opts.Seed<<4 + int64(w)))
			var n int64
			var lats []time.Duration
			for time.Now().Before(deadline) {
				k := "pk:" + strconv.Itoa(rng.Intn(keys))
				if rng.Intn(2) == 0 {
					start := time.Now()
					err = c.Set(k, value)
					lats = append(lats, time.Since(start))
				} else {
					_, _, err = c.Get(k)
				}
				if err != nil {
					mu.Lock()
					armErr = err
					mu.Unlock()
					return
				}
				n++
			}
			mu.Lock()
			ops += n
			setLats = append(setLats, lats...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()

	stats := make(map[string]string)
	for _, st := range srv.Stats() {
		stats[st.Name] = st.Value
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return nil, err
	}
	<-serveErr
	if armErr != nil {
		return nil, armErr
	}

	sort.Slice(setLats, func(i, j int) bool { return setLats[i] < setLats[j] })
	pct := func(p float64) time.Duration {
		if len(setLats) == 0 {
			return 0
		}
		i := int(p * float64(len(setLats)-1))
		return setLats[i]
	}
	opsPerSec := float64(ops) / opts.duration().Seconds()
	return []string{
		name,
		fmtOps(opsPerSec),
		fmt.Sprintf("%.0f", float64(pct(0.50))/1e3),
		fmt.Sprintf("%.0f", float64(pct(0.99))/1e3),
		stats["aof_records"],
		stats["aof_fsyncs"],
	}, nil
}
