package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"valois/bench/loadgen"
	"valois/internal/server"
)

const ioTimeout = 10 * time.Second

// driveBatches sends the replay's batches over one connection, a closed
// loop, checking every reply against a fresh model, and returns the wall
// time. It is the same client whatever answers: the real server
// in-process, or the canned loopback responder.
func (rp *replayer) driveBatches(addr string, prefill bool) (time.Duration, error) {
	c, err := loadgen.Dial(addr, rp.tab)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	if prefill {
		if err := loadgen.Prefill(c, rp.w); err != nil {
			return 0, fmt.Errorf("prefill: %w", err)
		}
	}
	model := loadgen.NewModel(rp.w)
	start := time.Now()
	for _, ops := range rp.batches {
		if err := c.Do(ops, model.Checker(ops)); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// inprocWall runs the real server in this process on a loopback listener
// with the workload's configuration and drives the replay's batches
// through it over one connection.
func (rp *replayer) inprocWall() (time.Duration, error) {
	cfg := server.Config{Backend: rp.w.Backend, Mode: rp.w.Mode}
	if rp.w.Durable {
		dir, err := os.MkdirTemp(rp.tmp, "inproc-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		cfg.PersistDir, cfg.FsyncPolicy = dir, "everysec"
	}
	srv, err := server.New(cfg)
	if err != nil {
		return 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	wall, err := rp.driveBatches(ln.Addr().String(), true)
	ctx, cancel := context.WithTimeout(context.Background(), ioTimeout)
	defer cancel()
	if serr := srv.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-served; err == nil && !errors.Is(serr, server.ErrServerClosed) {
		err = serr
	}
	return wall, err
}

// loopbackWall drives the same batches against the benchmark's own
// responder, which reads each batch's request bytes and writes the reply
// bytes the replay produced for it: the cost of the socket round trip and
// of the load generator itself, with no server work in it.
func (rp *replayer) loopbackWall(replies [][]byte) (time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	responded := make(chan error, 1)
	go func() { responded <- rp.respond(ln, replies) }()
	wall, err := rp.driveBatches(ln.Addr().String(), false)
	if err != nil {
		ln.Close() // unblocks an Accept that never got its client
	}
	if rerr := <-responded; err == nil {
		err = rerr
	}
	return wall, err
}

func (rp *replayer) respond(ln net.Listener, replies [][]byte) error {
	nc, err := ln.Accept()
	if err != nil {
		return err
	}
	defer nc.Close()
	var req []byte
	for i, ops := range rp.batches {
		n := 0
		for _, op := range ops {
			n += len(rp.tab.Request(op))
		}
		if cap(req) < n {
			req = make([]byte, n)
		}
		if err := nc.SetDeadline(time.Now().Add(ioTimeout)); err != nil {
			return err
		}
		if _, err := io.ReadFull(nc, req[:n]); err != nil {
			return err
		}
		if _, err := nc.Write(replies[i]); err != nil {
			return err
		}
	}
	return nil
}
