#!/usr/bin/env bash
# Transport smoke test: start the wire server, load it over TCP, kill -9 it
# mid-load, restart it, and assert from the load report that the clients
# saw typed transport errors AND reconnected AND kept completing work.
#
# Usage: scripts/transport_smoke.sh [out.json]
#
# This is the end-to-end proof behind the reconnecting client: the server
# crash is a real SIGKILL (no drain, no goodbye), the load is a real TCP
# workload (`ycsb --connect`), and the assertions read the machine-readable
# report the load half writes. Exit codes: 0 pass, 1 fail.

set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-/tmp/transport_smoke.json}"
PORT="${TRANSPORT_SMOKE_PORT:-9419}"
ADDR="127.0.0.1:$PORT"
SERVER_PID=""

cleanup() {
    [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
    wait 2>/dev/null || true
}
trap cleanup EXIT

cargo build --release -p slab-bench --bin wire_server --bin ycsb

start_server() {
    ./target/release/wire_server --addr "$ADDR" --buckets 1024 &
    SERVER_PID=$!
    # Wait for the listener (the binary retries the bind itself; this loop
    # only waits for it to come up).
    for _ in $(seq 1 100); do
        if (exec 3<>"/dev/tcp/127.0.0.1/$PORT") 2>/dev/null; then
            exec 3>&- 3<&-
            return 0
        fi
        sleep 0.1
    done
    echo "FAIL: wire server never started listening on $ADDR" >&2
    exit 1
}

start_server
echo "server up (pid $SERVER_PID); starting load"

./target/release/ycsb --connect "$ADDR" --clients 4 --duration-ms 6000 \
    --out "$OUT" &
LOAD_PID=$!

# Kill the server hard mid-load, leave the clients failing for a moment,
# then restart it so they can reconnect and resume.
sleep 2
echo "kill -9 server (pid $SERVER_PID) mid-load"
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
sleep 1
start_server
echo "server restarted (pid $SERVER_PID)"

wait "$LOAD_PID"

field() { grep -o "\"$1\": [0-9]*" "$OUT" | head -1 | grep -o '[0-9]*$'; }

completed=$(field completed)
transport_errors=$(field transport_errors)
reconnects=$(field reconnects)
echo "smoke: completed=$completed transport_errors=$transport_errors reconnects=$reconnects"

fail=0
if [ "${completed:-0}" -eq 0 ]; then
    echo "FAIL: no requests completed over the wire" >&2
    fail=1
fi
if [ "${transport_errors:-0}" -eq 0 ]; then
    echo "FAIL: the kill -9 produced no typed transport errors" >&2
    fail=1
fi
if [ "${reconnects:-0}" -eq 0 ]; then
    echo "FAIL: no client reconnected after the restart" >&2
    fail=1
fi
[ "$fail" -eq 0 ] || exit 1
echo "transport smoke passed"
