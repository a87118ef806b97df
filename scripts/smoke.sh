#!/bin/sh
# smoke.sh — end-to-end smoke test of the built binaries, as run by
# `make smoke` and CI: build valoisd and valoisctl, boot the server on an
# ephemeral loopback port, set/get/ping over RESP with valoisctl, then
# SIGTERM the server and require a graceful (exit 0) drain. (Concurrent
# load is tested elsewhere: 64 unpipelined connections over both
# protocols in cmd/valoisd's TestRunServesAndDrainsOnSIGTERM, pipelined
# traffic in bash bench/run.sh, which validates every reply.)
# A second phase smoke-tests durability: boot with -aof -fsync always,
# store a key with valoisctl, SIGKILL the server, restart it on the same
# data directory, and require the key back over both protocols.
#
# Environment knobs:
#   SMOKE_BACKEND   server backend               (default skiplist)
#   SMOKE_MODE      memory mode: gc or ebr       (default ebr)
set -eu

BACKEND=${SMOKE_BACKEND:-skiplist}
MODE=${SMOKE_MODE:-ebr}

workdir=$(mktemp -d)
server_pid=
cleanup() {
    if [ -n "$server_pid" ] && kill -0 "$server_pid" 2>/dev/null; then
        kill -KILL "$server_pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

echo "smoke: building valoisd, valoisctl"
go build -o "$workdir/valoisd" ./cmd/valoisd
go build -o "$workdir/valoisctl" ./cmd/valoisctl

# wait_addr LOGFILE PID: scrape the ephemeral "serving on <addr>" line.
wait_addr() {
    addr=
    i=0
    while [ $i -lt 50 ]; do
        addr=$(sed -n 's/.*serving on \([0-9.:]*\) .*/\1/p' "$1" | head -n 1)
        [ -n "$addr" ] && return 0
        if ! kill -0 "$2" 2>/dev/null; then
            echo "smoke: valoisd exited before serving:" >&2
            cat "$1" >&2
            return 1
        fi
        i=$((i + 1))
        sleep 0.1
    done
    echo "smoke: timed out waiting for valoisd to listen:" >&2
    cat "$1" >&2
    return 1
}

echo "smoke: starting valoisd (backend=$BACKEND mode=$MODE)"
"$workdir/valoisd" -addr 127.0.0.1:0 -backend "$BACKEND" -mode "$MODE" \
    >"$workdir/valoisd.log" 2>&1 &
server_pid=$!

wait_addr "$workdir/valoisd.log" "$server_pid"

echo "smoke: valoisctl over RESP (set/get/ping)"
"$workdir/valoisctl" -addr "$addr" -protocol resp set smoke-resp binary-safe
got=$("$workdir/valoisctl" -addr "$addr" -protocol resp get smoke-resp)
if [ "$got" != "binary-safe" ]; then
    echo "smoke: RESP get came back as '$got', want 'binary-safe'" >&2
    exit 1
fi
"$workdir/valoisctl" -addr "$addr" -protocol resp ping >/dev/null

echo "smoke: SIGTERM — server must drain and exit 0"
kill -TERM "$server_pid"
i=0
while kill -0 "$server_pid" 2>/dev/null; do
    i=$((i + 1))
    if [ $i -gt 150 ]; then
        echo "smoke: valoisd did not exit within 15s of SIGTERM" >&2
        cat "$workdir/valoisd.log" >&2
        exit 1
    fi
    sleep 0.1
done
# wait recovers the exit status; a non-graceful shutdown fails here.
set +e
wait "$server_pid"
status=$?
set -e
server_pid=
if [ "$status" -ne 0 ]; then
    echo "smoke: valoisd exited $status after SIGTERM, want 0:" >&2
    cat "$workdir/valoisd.log" >&2
    exit 1
fi

# ---- durability phase: SET, SIGKILL, restart, GET ----------------------
echo "smoke: durability — starting valoisd with -aof -fsync always"
datadir="$workdir/data"
"$workdir/valoisd" -addr 127.0.0.1:0 -backend "$BACKEND" -mode "$MODE" \
    -aof -data-dir "$datadir" -fsync always \
    >"$workdir/valoisd-aof.log" 2>&1 &
server_pid=$!
wait_addr "$workdir/valoisd-aof.log" "$server_pid"

"$workdir/valoisctl" -addr "$addr" set smoke-durable survives-sigkill
echo "smoke: durability — SIGKILL $server_pid (no graceful flush)"
kill -KILL "$server_pid"
set +e
wait "$server_pid" 2>/dev/null
set -e
server_pid=

echo "smoke: durability — restarting from $datadir"
"$workdir/valoisd" -addr 127.0.0.1:0 -backend "$BACKEND" -mode "$MODE" \
    -aof -data-dir "$datadir" -fsync always \
    >"$workdir/valoisd-aof2.log" 2>&1 &
server_pid=$!
wait_addr "$workdir/valoisd-aof2.log" "$server_pid"

got=$("$workdir/valoisctl" -addr "$addr" get smoke-durable) || {
    echo "smoke: durable key missing after SIGKILL+restart:" >&2
    cat "$workdir/valoisd-aof2.log" >&2
    exit 1
}
if [ "$got" != "survives-sigkill" ]; then
    echo "smoke: durable key came back as '$got', want 'survives-sigkill'" >&2
    exit 1
fi
# The same recovered key must read back over RESP — both wire protocols
# front the same recovered store.
got=$("$workdir/valoisctl" -addr "$addr" -protocol resp get smoke-durable) || {
    echo "smoke: durable key missing over RESP after restart" >&2
    exit 1
}
if [ "$got" != "survives-sigkill" ]; then
    echo "smoke: RESP durable key came back as '$got', want 'survives-sigkill'" >&2
    exit 1
fi
kill -TERM "$server_pid"
set +e
wait "$server_pid"
status=$?
set -e
server_pid=
if [ "$status" -ne 0 ]; then
    echo "smoke: valoisd (aof) exited $status after SIGTERM, want 0:" >&2
    cat "$workdir/valoisd-aof2.log" >&2
    exit 1
fi

echo "smoke: OK"
