// Command lfload is a closed-loop traffic driver for a running valoisd:
// N connections (one goroutine each) issue a GET/SET/DELETE mix for a
// fixed duration, one operation in flight per connection, and the exit
// status says whether the server sustained it. It measures nothing —
// throughput, latency and per-layer costs come from the benchmark
// (bash bench/run.sh), which spawns its own server. lfload exists for the
// two things that cannot: scripts/smoke.sh drives a server it booted
// itself, and -chaos puts a fault-injecting proxy in front of one.
//
// The operation mixes are the ones the in-process experiment suite uses
// (internal/workload): read-mostly 90/5/5, mixed 50/25/25, update-heavy
// 0/50/50, or an explicit find/insert/delete triple like "70/20/10".
//
// Usage:
//
//	lfload -addr localhost:11311 [-conns 64] [-d 10s] [-mix mixed]
//	       [-dist uniform] [-keyspace 16384] [-seed 1] [-protocol text]
//	       [-timeout 5s] [-retries 2] [-chaos [-chaos-seed 1]]
//
// lfload exits 1 if any operation failed or drew a protocol error; a
// clean run means every connection sustained the full workload.
//
// With -chaos, traffic is instead routed through an in-process
// fault-injection proxy (internal/faultnet) seeded by -chaos-seed, the
// run records a client-side operation history, and lfload exits 1 only
// if that history is not linearizable under the wire KV specification —
// transport errors are the point of the exercise (see chaos.go).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"valois/internal/client"
	"valois/internal/faultnet"
	"valois/internal/linearize"
	"valois/internal/proto"
	"valois/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("lfload", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		addr     = fs.String("addr", "localhost:11311", "valoisd address")
		conns    = fs.Int("conns", 64, "concurrent connections (one goroutine each)")
		dur      = fs.Duration("d", 10*time.Second, "run duration")
		mixName  = fs.String("mix", "mixed", "operation mix: read-mostly, mixed, update-heavy, or F/I/D")
		distName = fs.String("dist", "uniform", "key distribution: uniform or zipfian")
		keySpace = fs.Int("keyspace", 16384, "distinct keys")
		seed     = fs.Int64("seed", 1, "workload seed")
		protocol = fs.String("protocol", "text", "wire protocol: text or resp")
		timeout  = fs.Duration("timeout", 5*time.Second, "per-operation deadline")
		retries  = fs.Int("retries", 2, "retries per operation on transient errors")
		chaos    = fs.Bool("chaos", false, "inject network faults and verify wire-level linearizability")
		chaosSed = fs.Int64("chaos-seed", 1, "fault schedule seed (with -chaos); failures replay with the same seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mix, err := workload.ParseMix(*mixName)
	if err != nil {
		fmt.Fprintln(errw, "lfload:", err)
		return 2
	}
	dist, err := workload.ParseDistribution(*distName)
	if err != nil {
		fmt.Fprintln(errw, "lfload:", err)
		return 2
	}
	if *conns < 1 || *keySpace < 1 {
		fmt.Fprintln(errw, "lfload: -conns and -keyspace must be positive")
		return 2
	}
	opts := client.Options{OpTimeout: *timeout, Retries: *retries, Protocol: *protocol}

	target := *addr
	var proxy *faultnet.Proxy
	var hist *chaosHist
	if *chaos {
		p, err := faultnet.NewProxy(*addr, faultnet.ChaosFaults(*chaosSed))
		if err != nil {
			fmt.Fprintln(errw, "lfload: chaos proxy:", err)
			return 1
		}
		defer p.Close()
		proxy, hist = p, newChaosHist(*keySpace)
		target = p.Addr()
		opts.Retries = -1 // see chaos.go: one logical op = one wire attempt
		fmt.Fprintf(out, "lfload: chaos mode: faults seeded with %d, retries disabled, history verified at exit\n", *chaosSed)
	}

	var (
		wg         sync.WaitGroup
		stop       atomic.Bool
		ops        atomic.Int64
		gets       atomic.Int64
		getHits    atomic.Int64
		sets       atomic.Int64
		deletes    atomic.Int64
		deleteHits atomic.Int64
		netErrs    atomic.Int64
		protoErrs  atomic.Int64
	)
	start := time.Now()
	for w := 0; w < *conns; w++ {
		wg.Add(1)
		go func(wseed int64) {
			defer wg.Done()
			c, err := client.Dial(target, opts)
			for retry := 0; err != nil && hist != nil && retry < 20; retry++ {
				// The chaos proxy kills a fraction of connections at
				// accept time; dialing through it needs persistence.
				c, err = client.Dial(target, opts)
			}
			if err != nil {
				netErrs.Add(1)
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(wseed))
			var zipf *rand.Zipf
			if dist == workload.Zipfian {
				zipf = rand.NewZipf(rng, 1.2, 1, uint64(*keySpace-1))
			}
			draw := func() int {
				if zipf != nil {
					return int(zipf.Uint64())
				}
				return rng.Intn(*keySpace)
			}
			for !stop.Load() {
				k := draw()
				if hist != nil {
					var ok bool
					if k, ok = hist.claim(k, draw); !ok {
						return // per-key history budget exhausted everywhere
					}
				}
				key := keyName(k)
				var err error
				switch p := rng.Intn(100); {
				case p < mix.FindPct:
					var found bool
					if hist != nil {
						found, err = hist.get(c, k)
					} else {
						_, found, err = c.Get(key)
					}
					gets.Add(1)
					if found {
						getHits.Add(1)
					}
				case p < mix.FindPct+mix.InsertPct:
					if hist != nil {
						err = hist.set(c, k)
					} else {
						err = c.Set(key, []byte(key))
					}
					sets.Add(1)
				default:
					var deleted bool
					if hist != nil {
						deleted, err = hist.del(c, k)
					} else {
						deleted, err = c.Delete(key)
					}
					deletes.Add(1)
					if deleted {
						deleteHits.Add(1)
					}
				}
				if err != nil {
					var re *proto.ReplyError
					if errors.As(err, &re) {
						protoErrs.Add(1)
					} else {
						netErrs.Add(1)
					}
				}
				ops.Add(1)
			}
		}(*seed + int64(w) + 1)
	}
	workersDone := make(chan struct{})
	go func() { wg.Wait(); close(workersDone) }()
	select {
	case <-time.After(*dur):
	case <-workersDone: // chaos history budget ran out before the clock
	}
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	fmt.Fprintf(out, "lfload: %d conns for %.1fs against %s (mix=%s dist=%s keyspace=%d protocol=%s)\n",
		*conns, elapsed.Seconds(), *addr, *mixName, dist, *keySpace, *protocol)
	fmt.Fprintf(out, "  %d ops: %d gets (%d hits), %d sets, %d deletes (%d hits); errors: network=%d protocol=%d\n",
		ops.Load(), gets.Load(), getHits.Load(), sets.Load(), deletes.Load(), deleteHits.Load(),
		netErrs.Load(), protoErrs.Load())

	if hist != nil {
		snap := proxy.Stats().Snapshot()
		res := linearize.CheckKV(hist.history())
		fmt.Fprintf(out, "  chaos: %d faults (latency=%d partial=%d reset=%d stall=%d acceptfail=%d), %d ops lost, linearizable=%v\n",
			snap.Total(), snap.Latencies, snap.PartialReads+snap.PartialWrites, snap.Resets, snap.Stalls, snap.AcceptFails, hist.lost.Load(), res.OK)
		err := hist.fatal()
		if err != nil {
			fmt.Fprintf(errw, "lfload: chaos: data integrity failure (seed %d): %v\n", *chaosSed, err)
		}
		if !res.OK {
			fmt.Fprintf(errw, "lfload: chaos: history NOT linearizable (replay with -chaos-seed %d); violating subhistory for key %d:\n", *chaosSed, res.BadKey)
			for _, e := range res.BadHistory {
				fmt.Fprintf(errw, "  %v\n", e)
			}
		}
		// Transport errors are expected under injected faults; the pass
		// criterion is the history check (and the absence of protocol
		// errors, which no injected fault in this mode can produce).
		if err != nil || !res.OK || protoErrs.Load() > 0 {
			fmt.Fprintln(errw, "lfload: FAILED — chaos run violated the wire specification")
			return 1
		}
		return 0
	}
	if protoErrs.Load() > 0 || netErrs.Load() > 0 {
		fmt.Fprintln(errw, "lfload: FAILED — the run drew errors")
		return 1
	}
	return 0
}

func keyName(k int) string { return fmt.Sprintf("key:%08d", k) }
