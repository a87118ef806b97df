package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sync"
	"syscall"
	"time"
)

const (
	// readyTimeout bounds the wait for valoisd's "serving on" line.
	readyTimeout = 10 * time.Second
	// drainTimeout bounds the wait for valoisd to exit after SIGTERM; it
	// exceeds valoisd's own 10 s shutdown grace.
	drainTimeout = 15 * time.Second
)

// server is one running valoisd child.
type server struct {
	cmd  *exec.Cmd
	addr string
	log  *logWatch
	done chan error // receives cmd.Wait's result once
}

var servingOn = regexp.MustCompile(`serving on (\S+)`)

// logWatch collects the child's stderr and signals the first "serving on
// <addr>" line. exec.Cmd copies into it from its own goroutine, which
// cmd.Wait joins.
type logWatch struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	ready chan string // buffered 1: one send, from the first match
	found bool
}

func (l *logWatch) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	if !l.found {
		if m := servingOn.FindSubmatch(l.buf.Bytes()); m != nil {
			l.found = true
			l.ready <- string(m[1])
		}
	}
	return len(p), nil
}

func (l *logWatch) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// startServer runs bin with args and waits, boundedly, until it serves.
// Cancelling ctx kills the child.
func startServer(ctx context.Context, bin string, args []string) (*server, error) {
	s := &server{
		cmd:  exec.CommandContext(ctx, bin, args...),
		log:  &logWatch{ready: make(chan string, 1)},
		done: make(chan error, 1),
	}
	s.cmd.Stderr = s.log
	s.cmd.WaitDelay = time.Second
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { s.done <- s.cmd.Wait() }()
	timer := time.NewTimer(readyTimeout)
	defer timer.Stop()
	select {
	case s.addr = <-s.log.ready:
		return s, nil
	case err := <-s.done:
		s.done <- err
		return nil, fmt.Errorf("valoisd exited before serving: %v\n%s", err, s.log)
	case <-timer.C:
		s.kill()
		return nil, fmt.Errorf("valoisd not serving after %s\n%s", readyTimeout, s.log)
	case <-ctx.Done():
		s.kill()
		return nil, ctx.Err()
	}
}

// stop drains the server with SIGTERM and waits for it to exit 0, killing
// it if the drain does not end in time.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		s.kill()
		return err
	}
	timer := time.NewTimer(drainTimeout)
	defer timer.Stop()
	select {
	case err := <-s.done:
		s.done <- err
		if err != nil {
			return fmt.Errorf("valoisd drain: %v\n%s", err, s.log)
		}
		return nil
	case <-timer.C:
		s.kill()
		return fmt.Errorf("valoisd still running %s after SIGTERM", drainTimeout)
	}
}

// kill ends the child at once and waits for it. It is safe after stop.
func (s *server) kill() {
	s.cmd.Process.Kill()
	s.done <- <-s.done
}
