#!/bin/sh
# End-to-end smoke test for the mdl serve subsystem: build the binary,
# start a server on a random port, exercise query/assert/explain/
# metrics over HTTP with curl, assert on the responses, then shut down
# gracefully and verify the checkpoint was flushed. A second leg runs
# with -wal and -checkpoint: assert, SIGTERM, restart, assert again,
# SIGKILL, and restart warm from the checkpoint plus the logged batch.
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
WORK=$(mktemp -d)
PORT=${SERVE_SMOKE_PORT:-8317}
ADDR="127.0.0.1:$PORT"
BASE="http://$ADDR"
CKPT="$WORK/sp.ckpt"
LOG="$WORK/serve.log"
PID=""

cleanup() {
    [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

fail() {
    echo "serve-smoke: FAIL: $1" >&2
    [ -f "$LOG" ] && sed 's/^/serve-smoke:   server: /' "$LOG" >&2
    exit 1
}

# wait_ready waits for /readyz: it answers 503 until every program is
# materialized, so gating on it (not /healthz, which is liveness and
# always 200) means the first query cannot race materialization.
wait_ready() {
    i=0
    until curl -sf "$BASE/readyz" >/dev/null 2>&1; do
        i=$((i + 1))
        [ "$i" -lt 100 ] || fail "server did not become ready"
        kill -0 "$PID" 2>/dev/null || fail "server exited early"
        sleep 0.1
    done
}

# The response must contain every expected fragment.
expect() {
    resp=$1
    shift
    for frag in "$@"; do
        case "$resp" in
        *"$frag"*) ;;
        *) fail "expected $frag in response: $resp" ;;
        esac
    done
}

echo "serve-smoke: building mdl"
( cd "$ROOT" && go build -o "$WORK/mdl" ./cmd/mdl )

echo "serve-smoke: starting server on $ADDR"
"$WORK/mdl" serve -addr "$ADDR" -checkpoint "$CKPT" \
    "$ROOT/examples/programs/shortestpath.mdl" >"$LOG" 2>&1 &
PID=$!
wait_ready

echo "serve-smoke: healthz and readyz"
expect "$(curl -sf "$BASE/healthz")" '"status":"ok"' '"shortestpath"'
expect "$(curl -sf "$BASE/readyz")" '"status":"ok"'

echo "serve-smoke: query s(a, d) = 4"
expect "$(curl -sf -d '{"op":"cost","pred":"s","args":["a","d"]}' "$BASE/v1/query")" \
    '"cost":4' '"found":true' '"version":1'

echo "serve-smoke: wildcard scan s(a, _)"
expect "$(curl -sf -d '{"op":"facts","pred":"s","args":["a",null]}' "$BASE/v1/query")" \
    '"count":4' '["a","d",4]'

echo "serve-smoke: assert arc(a, d, 2)"
expect "$(curl -sf -d '{"facts":[{"pred":"arc","args":["a","d",2]}]}' "$BASE/v1/assert")" \
    '"version":2' '"asserted":1'

echo "serve-smoke: the assert's rounds on /v1/stats; no trace endpoint"
expect "$(curl -sf "$BASE/v1/stats")" '"rounds":[{' '"improved"'
resp=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/debug/traces")
[ "$resp" = "404" ] || fail "/debug/traces returned HTTP $resp, want 404"

echo "serve-smoke: query improved s(a, d) = 2"
expect "$(curl -sf -d '{"op":"cost","pred":"s","args":["a","d"]}' "$BASE/v1/query")" \
    '"cost":2' '"version":2'

echo "serve-smoke: non-monotone assert is rejected with 409/static"
resp=$(curl -s -o "$WORK/err.json" -w '%{http_code}' \
    -d '{"facts":[{"pred":"s","args":["a","b",1]}]}' "$BASE/v1/assert")
[ "$resp" = "409" ] || fail "derived-predicate assert returned HTTP $resp"
expect "$(cat "$WORK/err.json")" '"code":"static"' '"exit_code":3'

echo "serve-smoke: explain"
expect "$(curl -sf -d '{"pred":"s","args":["a","d"]}' "$BASE/v1/explain")" \
    '"found":true' 's(a, d, 2)'

echo "serve-smoke: metrics (Prometheus text)"
expect "$(curl -sf "$BASE/metrics")" \
    'mdl_http_requests_total{endpoint="/v1/query",code="200"}' \
    'mdl_http_requests_total{endpoint="/v1/assert",code="409"} 1' \
    'mdl_http_request_duration_seconds_bucket' \
    'mdl_program_model_size' 'mdl_program_model_version{program="shortestpath"} 2' \
    'mdl_build_info'

echo "serve-smoke: metrics ignore Accept: application/json"
expect "$(curl -sf -H 'Accept: application/json' "$BASE/metrics")" \
    '# TYPE mdl_http_requests_total counter'

echo "serve-smoke: program version and size"
expect "$(curl -sf "$BASE/v1/program")" '"version":2' '"size":'

echo "serve-smoke: per-rule stats endpoint"
expect "$(curl -sf "$BASE/v1/stats")" '"rules"' '"components"' '"firings"'

echo "serve-smoke: request id echo"
rid=$(curl -sf -o /dev/null -D - "$BASE/healthz" | tr -d '\r' | sed -n 's/^X-Request-Id: //Ip')
[ -n "$rid" ] || fail "no X-Request-Id header on response"

echo "serve-smoke: graceful shutdown flushes the checkpoint"
kill -TERM "$PID"
wait "$PID" || fail "server exited non-zero on SIGTERM"
PID=""
[ -s "$CKPT" ] || fail "checkpoint not written on shutdown"
grep -q "checkpoint flushed" "$LOG" || fail "no checkpoint flush in log"

echo "serve-smoke: restart warm-starts with the asserted fact"
"$WORK/mdl" serve -addr "$ADDR" -checkpoint "$CKPT" \
    "$ROOT/examples/programs/shortestpath.mdl" >"$LOG" 2>&1 &
PID=$!
wait_ready
grep -q "warm-started" "$LOG" || fail "restart did not warm-start from the checkpoint"
expect "$(curl -sf -d '{"op":"cost","pred":"s","args":["a","d"]}' "$BASE/v1/query")" \
    '"cost":2'
kill -TERM "$PID"
wait "$PID" || fail "restarted server exited non-zero"
PID=""

# The -wal leg: a restart restores the checkpoint once, reads the log
# past its watermark once and runs one fixpoint of the two.
WAL="$WORK/wal"
CKPT="$WORK/wal-sp.ckpt"
serve_wal() {
    "$WORK/mdl" serve -addr "$ADDR" -checkpoint "$CKPT" -wal "$WAL" \
        "$ROOT/examples/programs/shortestpath.mdl" >"$LOG" 2>&1 &
    PID=$!
    wait_ready
}

echo "serve-smoke: -wal: assert arc(a, d, 2), SIGTERM"
serve_wal
expect "$(curl -sf -d '{"facts":[{"pred":"arc","args":["a","d",2]}]}' "$BASE/v1/assert")" \
    '"asserted":1'
kill -TERM "$PID"
wait "$PID" || fail "-wal server exited non-zero on SIGTERM"
PID=""
[ -s "$CKPT" ] || fail "-wal server flushed no checkpoint on shutdown"

echo "serve-smoke: -wal: restart warm, assert arc(b, a, 1), SIGKILL"
serve_wal
grep -q "warm-started" "$LOG" || fail "-wal restart did not warm-start from the checkpoint"
expect "$(curl -sf -d '{"op":"cost","pred":"s","args":["a","d"]}' "$BASE/v1/query")" '"cost":2'
expect "$(curl -sf -d '{"facts":[{"pred":"arc","args":["b","a",1]}]}' "$BASE/v1/assert")" \
    '"asserted":1'
kill -KILL "$PID"
wait "$PID" 2>/dev/null || true
PID=""

echo "serve-smoke: -wal: restart from the checkpoint and the logged batch"
serve_wal
grep -q "warm-started.*1 wal batches replayed" "$LOG" ||
    fail "restart after SIGKILL did not warm-start and replay the logged batch"
expect "$(curl -sf -d '{"op":"cost","pred":"s","args":["a","d"]}' "$BASE/v1/query")" '"cost":2'
expect "$(curl -sf -d '{"op":"cost","pred":"s","args":["b","a"]}' "$BASE/v1/query")" '"cost":1'
kill -TERM "$PID"
wait "$PID" || fail "-wal server exited non-zero after recovery"
PID=""

echo "serve-smoke: PASS"
