package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"
)

// startProfiler serves net/http/pprof on addr with mutex and block
// profiling enabled, so contention on the serving hot path (logMu, the
// accept loop, dictionary CAS retries) shows up in live profiles. An explicit
// mux keeps the daemon off http.DefaultServeMux, and the returned stop
// closes the listener and restores the global profile rates.
func startProfiler(addr string, logw io.Writer) (stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pprof listen: %w", err)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	runtime.SetMutexProfileFraction(defaultMutexProfileFraction)
	runtime.SetBlockProfileRate(defaultBlockProfileRate)

	hs := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if serr := hs.Serve(ln); serr != http.ErrServerClosed {
			fmt.Fprintf(logw, "valoisd: pprof server: %v\n", serr)
		}
	}()
	fmt.Fprintf(logw, "valoisd: pprof on %s\n", ln.Addr())

	return func() {
		hs.Close()
		<-done
		runtime.SetMutexProfileFraction(0)
		runtime.SetBlockProfileRate(0)
	}, nil
}

const (
	// defaultMutexProfileFraction samples 1/N of mutex contention events;
	// 5 keeps overhead negligible while still resolving logMu hot spots.
	defaultMutexProfileFraction = 5
	// defaultBlockProfileRate records blocking events lasting at least
	// this many nanoseconds (1ms), ignoring scheduler noise.
	defaultBlockProfileRate = int(time.Millisecond)
)
