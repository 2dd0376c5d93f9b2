#!/usr/bin/env bash
# Single CI entry point: tier-1 configure/build/test, a pawctl smoke
# test of the demo pipeline and the store (the default 1-shard layout
# and a 4-shard one, including kill-and-reopen crash drills — one
# against a shard's WAL tail, one against background compaction
# mid-flight), a pawd
# server drill (socket ingest, per-principal query filtering, queries
# concurrent with a pipelined ingest on the MVCC read path, a
# METRICS-over-the-wire check, a repeated-lineage check that must hit
# the memoized privacy-view cache, kill -9 durability, lock-file
# liveness), a replication drill (leader + WAL-shipping follower with
# quorum acks, follower queries mid-ingest, write rejection on the
# follower, a trace drill — a quorum-acked write's trace id must show
# up in BOTH nodes' TRACE_DUMP output, plus audit-channel and
# admin-gate checks — then kill -9 the leader and promote the follower
# with no acked write lost), bench smoke runs (store E10 + server
# E11/E12/E13/E14, E11 gated <= 5% observability overhead against a
# PAW_NO_METRICS + PAW_NO_TRACE baseline build, E13 gated >= 3x cached
# lineage/structural p50; E12's p99 ratio and E14's follower scaling
# are advisory in --smoke), server_test in the PAW_NO_METRICS +
# PAW_NO_TRACE tree (built with -Werror),
# an ASan+UBSan build of the store/server test binaries, and a TSan
# build of the concurrency suites (group-commit WAL, writer queues,
# background compaction, server, replication, metrics registry).
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
JOBS="${JOBS:-$(nproc)}"

echo "== configure =="
cmake -B "$BUILD_DIR" -S .

echo "== build =="
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "== ctest =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo "== pawctl smoke =="
PAWCTL="$BUILD_DIR/pawctl"
"$PAWCTL" demo | "$PAWCTL" validate /dev/stdin

SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
"$PAWCTL" demo > "$SMOKE_DIR/demo.paw"
# Default init: a 1-shard store (PAWSHARDS + shard-0000).
"$PAWCTL" init "$SMOKE_DIR/store"
test -f "$SMOKE_DIR/store/PAWSHARDS"
grep -q "pawstore 2" "$SMOKE_DIR/store/shard-0000/PAWSTORE"
"$PAWCTL" ingest "$SMOKE_DIR/store" "$SMOKE_DIR/demo.paw" runs=10
"$PAWCTL" compact "$SMOKE_DIR/store"
"$PAWCTL" ingest "$SMOKE_DIR/store" "$SMOKE_DIR/demo.paw" runs=5
"$PAWCTL" open "$SMOKE_DIR/store" | tee "$SMOKE_DIR/store_open.out"
grep -q "shards:      1" "$SMOKE_DIR/store_open.out"
grep -q "executions:  15" "$SMOKE_DIR/store_open.out"

echo "== pawctl 4-shard smoke =="
"$PAWCTL" init "$SMOKE_DIR/shards" shards=4
"$PAWCTL" ingest "$SMOKE_DIR/shards" "$SMOKE_DIR/demo.paw" runs=8
"$PAWCTL" compact "$SMOKE_DIR/shards" threads=4
"$PAWCTL" ingest "$SMOKE_DIR/shards" "$SMOKE_DIR/demo.paw" runs=4
# Kill-and-reopen drill: tear bytes off the tail of the busiest shard's
# WAL (a crash mid-append) and require recovery to repair and report it.
TORN_WAL="$(ls -S "$SMOKE_DIR"/shards/shard-*/wal-*.log | head -1)"
truncate -s -3 "$TORN_WAL"
"$PAWCTL" open "$SMOKE_DIR/shards" threads=4 | tee "$SMOKE_DIR/open.out"
grep -q "torn tail" "$SMOKE_DIR/open.out"
# The repaired store keeps accepting writes (through the writer queues
# and with group-committed durability, to exercise both knobs).
"$PAWCTL" ingest "$SMOKE_DIR/shards" "$SMOKE_DIR/demo.paw" runs=2 threads=4 sync=each

echo "== background compaction kill-and-reopen drill =="
# Ingest with tiny segments and background folds, kill -9 mid-flight —
# the crash can land anywhere in the rotate→snapshot→seal-delete
# window — then require recovery, further ingest, and a background
# compact to all succeed on whatever the crash left behind.
"$PAWCTL" init "$SMOKE_DIR/bg"
"$PAWCTL" ingest "$SMOKE_DIR/bg" "$SMOKE_DIR/demo.paw" runs=400 \
  segbytes=20000 every=50 compact=background &
INGEST_PID=$!
sleep 0.4
kill -9 "$INGEST_PID" 2>/dev/null || true
wait "$INGEST_PID" 2>/dev/null || true
"$PAWCTL" status "$SMOKE_DIR/bg"
"$PAWCTL" open "$SMOKE_DIR/bg" | tee "$SMOKE_DIR/bg_open.out"
grep -q "WAL segment(s)" "$SMOKE_DIR/bg_open.out"
"$PAWCTL" ingest "$SMOKE_DIR/bg" "$SMOKE_DIR/demo.paw" runs=5 \
  segbytes=20000 compact=background
"$PAWCTL" compact "$SMOKE_DIR/bg" mode=background
"$PAWCTL" open "$SMOKE_DIR/bg"

echo "== pawd server smoke drill =="
# Start a pawd over a fresh sharded store, ingest through the socket
# with pipelining and durable acks, query it, then kill -9 the server
# and require (a) the reopened store to hold every acked write and
# (b) the store-dir lock to have died with the process.
"$PAWCTL" init "$SMOKE_DIR/srv" shards=4
"$PAWCTL" serve "$SMOKE_DIR/srv" port=0 writers=4 \
  auth=admin:100,alice:0 > "$SMOKE_DIR/serve.out" 2>&1 &
SERVE_PID=$!
for _ in $(seq 100); do
  grep -q "listening on port" "$SMOKE_DIR/serve.out" && break
  sleep 0.1
done
PORT="$(sed -n 's/.*listening on port \([0-9]*\).*/\1/p' "$SMOKE_DIR/serve.out")"
test -n "$PORT"
"$PAWCTL" put "localhost:$PORT" "$SMOKE_DIR/demo.paw" runs=40 \
  pipeline=16 user=admin | tee "$SMOKE_DIR/put.out"
grep -q "acked 40 execution(s)" "$SMOKE_DIR/put.out"
"$PAWCTL" query "localhost:$PORT" omim user=admin | tee "$SMOKE_DIR/q_admin.out"
grep -q "disease susceptibility" "$SMOKE_DIR/q_admin.out"
# Privacy filtering differs per principal: level-0 alice must not see
# the level-2 module the admin query surfaced.
"$PAWCTL" query "localhost:$PORT" omim user=alice | tee "$SMOKE_DIR/q_alice.out"
grep -q "no results" "$SMOKE_DIR/q_alice.out"
# status must warn that a live pawd holds the store-dir lock.
"$PAWCTL" status "$SMOKE_DIR/srv" | tee "$SMOKE_DIR/srv_status.out"
grep -q "lock:      HELD" "$SMOKE_DIR/srv_status.out"
# The METRICS surface reflects the socket ingest that just ran:
# per-opcode request counters and a nonzero WAL fsync p99 (serve
# defaults to sync=each, so the puts paid real fsyncs).
"$PAWCTL" connect "localhost:$PORT" user=admin metrics \
  | tee "$SMOKE_DIR/metrics.out"
grep -q 'paw_server_requests_total{opcode="add_execution"}' \
  "$SMOKE_DIR/metrics.out"
FSYNC_P99="$(awk '/^paw_wal_fsync_seconds /{
  for (i = 1; i <= NF; i++)
    if ($i ~ /^p99=/) { sub("p99=", "", $i); print $i }
}' "$SMOKE_DIR/metrics.out")"
test -n "$FSYNC_P99"
awk -v v="$FSYNC_P99" 'BEGIN { exit !(v > 0) }'
# The raw flag emits Prometheus text exposition. (Dump to a file
# before grepping: grep -q on the pipe would quit at the first match
# and kill pawctl with EPIPE, which pipefail turns into a failure.)
"$PAWCTL" connect "localhost:$PORT" user=admin metrics --raw \
  > "$SMOKE_DIR/metrics_raw.out"
grep -q "^# TYPE paw_server_requests_total counter" \
  "$SMOKE_DIR/metrics_raw.out"
# Memoized privacy views: the same lineage query twice — the second
# answer must be served from the view cache (nonzero hits counter) and
# be byte-identical to the first.
"$PAWCTL" connect "localhost:$PORT" user=admin \
  'lineage=disease susceptibility' ordinal=0 item=19 \
  | tee "$SMOKE_DIR/lineage1.out"
grep -q "lineage of item 19" "$SMOKE_DIR/lineage1.out"
"$PAWCTL" connect "localhost:$PORT" user=admin \
  'lineage=disease susceptibility' ordinal=0 item=19 \
  > "$SMOKE_DIR/lineage2.out"
diff "$SMOKE_DIR/lineage1.out" "$SMOKE_DIR/lineage2.out"
"$PAWCTL" connect "localhost:$PORT" user=admin metrics \
  > "$SMOKE_DIR/metrics_vc.out"
VC_HITS="$(awk '/^paw_privacy_view_cache_hits_total/{print $2}' \
  "$SMOKE_DIR/metrics_vc.out")"
test -n "$VC_HITS"
awk -v v="$VC_HITS" 'BEGIN { exit !(v > 0) }'
# Mixed read/write drill (MVCC read path): queries run while a
# pipelined ingest is in flight and must succeed with the same
# per-principal filtering — queries ride the shared lease and serve
# from pinned engine views instead of draining the writer queues.
"$PAWCTL" put "localhost:$PORT" "$SMOKE_DIR/demo.paw" runs=300 \
  pipeline=16 user=admin > "$SMOKE_DIR/put_mid.out" &
PUT_PID=$!
"$PAWCTL" query "localhost:$PORT" omim user=admin \
  | tee "$SMOKE_DIR/q_mid_admin.out"
grep -q "disease susceptibility" "$SMOKE_DIR/q_mid_admin.out"
"$PAWCTL" query "localhost:$PORT" omim user=alice \
  > "$SMOKE_DIR/q_mid_alice.out"
grep -q "no results" "$SMOKE_DIR/q_mid_alice.out"
wait "$PUT_PID"
grep -q "acked 300 execution(s)" "$SMOKE_DIR/put_mid.out"
kill -9 "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
# The kernel released the flock with the process; recovery sees every
# acked write (both puts completed before the kill: 40 + 300).
"$PAWCTL" open "$SMOKE_DIR/srv" threads=4 | tee "$SMOKE_DIR/srv_open.out"
grep -q "executions:  340" "$SMOKE_DIR/srv_open.out"

echo "== pawd replication drill =="
# Leader with quorum acks + one WAL-shipping follower. Every acked
# write therefore exists on both nodes, so killing the leader with -9
# and promoting the follower (reopening its store dir as a plain
# leader) must lose nothing. Along the way: the follower serves
# privacy-filtered reads while a pipelined ingest runs on the leader,
# and rejects writes with a message pointing at the leader.
"$PAWCTL" init "$SMOKE_DIR/lead" shards=4
"$PAWCTL" init "$SMOKE_DIR/fol" shards=4
"$PAWCTL" serve "$SMOKE_DIR/lead" port=0 writers=4 \
  auth=admin:100,alice:0 acks=quorum quorum-ms=15000 trace-sample=1 \
  > "$SMOKE_DIR/lead_serve.out" 2>&1 &
LEAD_PID=$!
for _ in $(seq 100); do
  grep -q "listening on port" "$SMOKE_DIR/lead_serve.out" && break
  sleep 0.1
done
LEAD_PORT="$(sed -n 's/.*listening on port \([0-9]*\).*/\1/p' \
  "$SMOKE_DIR/lead_serve.out")"
test -n "$LEAD_PORT"
grep -q "acks=quorum" "$SMOKE_DIR/lead_serve.out"
"$PAWCTL" serve "$SMOKE_DIR/fol" port=0 writers=4 \
  auth=admin:100,alice:0 follow="localhost:$LEAD_PORT" \
  follow-principal=admin trace-sample=1 \
  > "$SMOKE_DIR/fol_serve.out" 2>&1 &
FOL_PID=$!
for _ in $(seq 100); do
  grep -q "listening on port" "$SMOKE_DIR/fol_serve.out" && break
  sleep 0.1
done
FOL_PORT="$(sed -n 's/.*listening on port \([0-9]*\).*/\1/p' \
  "$SMOKE_DIR/fol_serve.out")"
test -n "$FOL_PORT"
grep -q "follower of" "$SMOKE_DIR/fol_serve.out"
# Quorum-acked pipelined ingest: each ack means a follower confirmed
# the write durable, so "acked 40" is itself the replication check.
"$PAWCTL" put "localhost:$LEAD_PORT" "$SMOKE_DIR/demo.paw" runs=40 \
  pipeline=16 user=admin | tee "$SMOKE_DIR/repl_put.out"
grep -q "acked 40 execution(s)" "$SMOKE_DIR/repl_put.out"
# Query the follower while a second pipelined ingest runs on the
# leader: same per-principal privacy filtering as the leader.
"$PAWCTL" put "localhost:$LEAD_PORT" "$SMOKE_DIR/demo.paw" runs=200 \
  pipeline=16 user=admin > "$SMOKE_DIR/repl_put_mid.out" &
REPL_PUT_PID=$!
"$PAWCTL" query "localhost:$FOL_PORT" omim user=admin \
  | tee "$SMOKE_DIR/repl_q_admin.out"
grep -q "disease susceptibility" "$SMOKE_DIR/repl_q_admin.out"
"$PAWCTL" query "localhost:$FOL_PORT" omim user=alice \
  > "$SMOKE_DIR/repl_q_alice.out"
grep -q "no results" "$SMOKE_DIR/repl_q_alice.out"
# Writes to the follower are rejected and point at the leader.
if "$PAWCTL" put "localhost:$FOL_PORT" "$SMOKE_DIR/demo.paw" runs=1 \
  user=admin > "$SMOKE_DIR/repl_reject.out" 2>&1; then
  echo "FAIL: follower accepted a write"
  exit 1
fi
grep -qi "follower" "$SMOKE_DIR/repl_reject.out"
wait "$REPL_PUT_PID"
grep -q "acked 200 execution(s)" "$SMOKE_DIR/repl_put_mid.out"
# The leader's metrics surface reports replication state.
"$PAWCTL" connect "localhost:$LEAD_PORT" user=admin metrics \
  > "$SMOKE_DIR/repl_metrics.out"
grep -q "paw_repl_lag_seconds" "$SMOKE_DIR/repl_metrics.out"
SUBSCRIBERS="$(awk '/^paw_repl_subscribers /{print $2}' \
  "$SMOKE_DIR/repl_metrics.out")"
test "$SUBSCRIBERS" = "1"
# Per-subscriber replication backlog gauge (dropped on disconnect).
grep -q 'paw_repl_subscriber_lag_records{follower="pawd"}' \
  "$SMOKE_DIR/repl_metrics.out"
# Trace drill: both nodes run trace-sample=1, so a quorum-acked write
# leaves one span tree spanning the wire. Pick the trace id of a
# leader trace that pushed a replication batch and require the
# follower recorded its apply span under the SAME id — end-to-end
# context propagation, asserted from the outside.
"$PAWCTL" connect "localhost:$LEAD_PORT" user=admin trace \
  > "$SMOKE_DIR/lead_trace.out"
grep -q "req.add_execution" "$SMOKE_DIR/lead_trace.out"
grep -q "wal.fsync" "$SMOKE_DIR/lead_trace.out"
grep -q "quorum.wait" "$SMOKE_DIR/lead_trace.out"
TRACE_ID="$(awk '/^trace /{id=$2} /repl\.push/{print id; exit}' \
  "$SMOKE_DIR/lead_trace.out")"
test -n "$TRACE_ID"
"$PAWCTL" connect "localhost:$FOL_PORT" user=admin trace \
  --id="$TRACE_ID" > "$SMOKE_DIR/fol_trace.out"
grep -q "trace $TRACE_ID" "$SMOKE_DIR/fol_trace.out"
grep -q "repl.apply" "$SMOKE_DIR/fol_trace.out"
# The privacy audit channel on the follower saw both principals'
# queries (writes are not privacy-enforced reads, so the leader's
# ingest leaves no audit events — the follower served the queries).
"$PAWCTL" connect "localhost:$FOL_PORT" user=admin audit \
  > "$SMOKE_DIR/fol_audit.out"
grep -Eq "served +admin +keyword_search" "$SMOKE_DIR/fol_audit.out"
grep -Eq "served +alice +keyword_search" "$SMOKE_DIR/fol_audit.out"
# TRACE_DUMP is admin-gated: alice gets a permission error.
if "$PAWCTL" connect "localhost:$LEAD_PORT" user=alice trace \
  > "$SMOKE_DIR/alice_trace.out" 2>&1; then
  echo "FAIL: non-admin principal dumped traces"
  exit 1
fi
# Partitioned failover: kill -9 the leader mid-life, then the
# follower, and promote by reopening the follower's store dir. Every
# quorum-acked write (240 of them) must be there.
kill -9 "$LEAD_PID" 2>/dev/null || true
wait "$LEAD_PID" 2>/dev/null || true
kill -9 "$FOL_PID" 2>/dev/null || true
wait "$FOL_PID" 2>/dev/null || true
"$PAWCTL" open "$SMOKE_DIR/fol" threads=4 | tee "$SMOKE_DIR/fol_open.out"
grep -q "executions:  240" "$SMOKE_DIR/fol_open.out"
# Promote: serve the follower's store as a plain leader and keep
# writing — the replicated WAL is byte-compatible with recovery.
"$PAWCTL" serve "$SMOKE_DIR/fol" port=0 writers=4 \
  auth=admin:100,alice:0 > "$SMOKE_DIR/promo_serve.out" 2>&1 &
PROMO_PID=$!
for _ in $(seq 100); do
  grep -q "listening on port" "$SMOKE_DIR/promo_serve.out" && break
  sleep 0.1
done
PROMO_PORT="$(sed -n 's/.*listening on port \([0-9]*\).*/\1/p' \
  "$SMOKE_DIR/promo_serve.out")"
test -n "$PROMO_PORT"
"$PAWCTL" put "localhost:$PROMO_PORT" "$SMOKE_DIR/demo.paw" runs=5 \
  pipeline=4 user=admin | tee "$SMOKE_DIR/promo_put.out"
grep -q "acked 5 execution(s)" "$SMOKE_DIR/promo_put.out"
"$PAWCTL" query "localhost:$PROMO_PORT" omim user=admin \
  | tee "$SMOKE_DIR/promo_q.out"
grep -q "disease susceptibility" "$SMOKE_DIR/promo_q.out"
kill -9 "$PROMO_PID" 2>/dev/null || true
wait "$PROMO_PID" 2>/dev/null || true
"$PAWCTL" open "$SMOKE_DIR/fol" threads=4 | tee "$SMOKE_DIR/promo_open.out"
grep -q "executions:  245" "$SMOKE_DIR/promo_open.out"

echo "== no-observability server tests =="
# The PAW_NO_METRICS + PAW_NO_TRACE tree builds with -Werror:
# compiled-out instrumentation must leave no unused names. server_test
# runs there too (its metric and span assertions are guarded), so the
# request path is checked with the observability stack compiled out.
# bench_server's overhead gate below reuses this tree as its baseline.
NOMETRICS_BUILD_DIR="${NOMETRICS_BUILD_DIR:-build-nometrics}"
cmake -B "$NOMETRICS_BUILD_DIR" -S . -DPAW_NO_METRICS=ON \
  -DPAW_NO_TRACE=ON -DCMAKE_CXX_FLAGS=-Werror
cmake --build "$NOMETRICS_BUILD_DIR" -j "$JOBS" --target server_test
"$NOMETRICS_BUILD_DIR/server_test" --gtest_brief=1

echo "== bench smoke (BENCH_store.json) =="
if [[ -x "$BUILD_DIR/bench_store" ]]; then
  BENCH_BIN="$(pwd)/$BUILD_DIR/bench_store"
  (cd "$SMOKE_DIR" && "$BENCH_BIN" --smoke)
  test -s "$SMOKE_DIR/BENCH_store.json"
  grep -q '"experiment":"e10f"' "$SMOKE_DIR/BENCH_store.json"
  grep -q '"experiment":"e10g"' "$SMOKE_DIR/BENCH_store.json"
  cp "$SMOKE_DIR/BENCH_store.json" "$BUILD_DIR/BENCH_store.json"
  echo "perf trajectory written to $BUILD_DIR/BENCH_store.json"
else
  echo "bench_store not built (no google-benchmark); skipping"
fi

echo "== bench_server smoke (BENCH_server.json, E11) =="
if [[ -x "$BUILD_DIR/bench_server" ]]; then
  BENCH_BIN="$(pwd)/$BUILD_DIR/bench_server"
  # Full instrumented smoke run first: produces BENCH_server.json and
  # the pipelined-vs-sync acceptance line.
  (cd "$SMOKE_DIR" && "$BENCH_BIN" --smoke | tee bench_server.out)
  test -s "$SMOKE_DIR/BENCH_server.json"
  grep -q '"experiment":"e11"' "$SMOKE_DIR/BENCH_server.json"
  grep -q '"mode":"pipelined"' "$SMOKE_DIR/BENCH_server.json"
  # Acceptance: pipelined >= 3x sync at 8 connections in smoke mode.
  grep -q ">= 3x: yes" "$SMOKE_DIR/bench_server.out"
  # E12 (mixed read/write) ran and its hard acceptance held: query
  # phases never took the exclusive store lease. (The p99-vs-idle ratio
  # is advisory in --smoke.)
  grep -q '"experiment":"e12"' "$SMOKE_DIR/BENCH_server.json"
  grep -q "^e12 query p99 under ingest:" "$SMOKE_DIR/bench_server.out"
  grep -q "queries never took the writer lease: yes" \
    "$SMOKE_DIR/bench_server.out"
  # E13 (multi-tenant capacity) ran both phases and recorded per-cell
  # view-cache hit-rate deltas; the memoized views delivered >= 3x on
  # lineage and structural p50 at high skew.
  grep -q '"experiment":"e13"' "$SMOKE_DIR/BENCH_server.json"
  grep -q '"view_cache":"on"' "$SMOKE_DIR/BENCH_server.json"
  grep -q '"view_cache_hit_rate"' "$SMOKE_DIR/BENCH_server.json"
  grep -q "^e13 view-cache p50 speedup.*(>= 3x: yes)" \
    "$SMOKE_DIR/bench_server.out"
  # E14 (follower read capacity) ran: followers caught up, the query
  # population fanned across leader + followers, and the leader's
  # replication-lag histogram recorded the stream. Scaling itself is
  # advisory in --smoke (cells too short to gate on a shared host).
  grep -q '"experiment":"e14"' "$SMOKE_DIR/BENCH_server.json"
  grep -q '"phase":"fanned"' "$SMOKE_DIR/BENCH_server.json"
  grep -q "^e14 follower scaling:" "$SMOKE_DIR/bench_server.out"
  grep -q "^e14 paw_repl_lag_seconds: count=" "$SMOKE_DIR/bench_server.out"
  # Overhead gate: the same bench from a PAW_NO_METRICS build (update
  # paths compiled out) measures what the instrumentation costs; the
  # instrumented build must stay within 5% of it. Shared CI machines
  # make any single-run comparison hopeless — throughput swings +-10%
  # over seconds from external load — so the gate alternates several
  # short --gate-only runs of each binary and compares the per-build
  # BEST run (the throughput ceiling): a load burst only lowers
  # samples, and alternation gives both builds equal shots at a clean
  # window, while a genuine hot-path regression caps the instrumented
  # ceiling across every run. One retry absorbs a pathologically busy
  # window.
  # The baseline is the no-observability tree configured above: it
  # compiles out BOTH metrics and the span flight recorder, so the gate
  # prices the full observability stack (counters + tracing at default
  # sampling) at once.
  cmake --build "$NOMETRICS_BUILD_DIR" -j "$JOBS" --target bench_server
  BASE_BIN="$(pwd)/$NOMETRICS_BUILD_DIR/bench_server"
  gate_attempt() {
    : > "$SMOKE_DIR/gate_base.out"
    : > "$SMOKE_DIR/gate_inst.out"
    local t
    for t in 1 2 3 4 5; do
      (cd "$SMOKE_DIR" && \
        BENCH_JSON="$SMOKE_DIR/BENCH_server_nometrics.json" \
        "$BASE_BIN" --smoke --gate-only >> gate_base.out)
      (cd "$SMOKE_DIR" && \
        BENCH_JSON="$SMOKE_DIR/BENCH_server_gate.json" \
        "$BENCH_BIN" --smoke --gate-only >> gate_inst.out)
    done
    local base_best inst_best
    base_best="$(awk '/^e11 gate/{if ($4 > m) m = $4} END{print m}' \
      "$SMOKE_DIR/gate_base.out")"
    inst_best="$(awk '/^e11 gate/{if ($4 > m) m = $4} END{print m}' \
      "$SMOKE_DIR/gate_inst.out")"
    awk -v b="$base_best" -v i="$inst_best" 'BEGIN {
      if (b <= 0 || i <= 0) { print "overhead gate: missing data"; exit }
      verdict = (i >= 0.95 * b) ? "(<= 5%: yes)" : "(> 5%)"
      fmt = "e11 instrumentation overhead (best of 5 alternated runs,"
      fmt = fmt " %.0f vs %.0f ops/s): %.1f%% %s\n"
      printf fmt, i, b, (1 - i / b) * 100, verdict
    }' | tee "$SMOKE_DIR/bench_gate.out"
    grep -qF "<= 5%: yes" "$SMOKE_DIR/bench_gate.out"
  }
  if ! gate_attempt; then
    echo "overhead gate failed; retrying once (noisy machine)"
    gate_attempt
  fi
  # Acceptance: metrics + tracing cost <= 5% vs the
  # PAW_NO_METRICS + PAW_NO_TRACE baseline.
  grep -qF "<= 5%: yes" "$SMOKE_DIR/bench_gate.out"
  cp "$SMOKE_DIR/BENCH_server.json" "$BUILD_DIR/BENCH_server.json"
  echo "server perf written to $BUILD_DIR/BENCH_server.json"
else
  echo "bench_server not built (no google-benchmark); skipping"
fi

echo "== asan+ubsan store tests =="
ASAN_BUILD_DIR="${ASAN_BUILD_DIR:-build-asan}"
cmake -B "$ASAN_BUILD_DIR" -S . -DPAW_SANITIZE=address
# The execution-view kernels (flat CSR offsets, one-sweep reachability,
# append-only renders) run here too: exec_view_test, zoom_out_test,
# lineage_test and exec_serialize_test.
SAN_TESTS=(store_test sharded_store_test crash_injection_test record_test
           thread_pool_test crc32_test codec_v2_test wal_group_commit_test
           background_compaction_test wire_test
           server_test replication_test store_lock_test metrics_test
           trace_test view_cache_test dp_counters_test
           exec_view_test zoom_out_test lineage_test exec_serialize_test)
cmake --build "$ASAN_BUILD_DIR" -j "$JOBS" --target "${SAN_TESTS[@]}"
for t in "${SAN_TESTS[@]}"; do
  echo "-- $t (asan+ubsan)"
  "$ASAN_BUILD_DIR/$t" --gtest_brief=1
done

echo "== tsan concurrency tests =="
# The suites that genuinely race threads: group-commit WAL (appenders +
# rotation + the replication commit sink), sharded writer queues,
# background compaction (snapshot worker vs live appends over the
# pinned view), and replication (leader sender + follower apply thread
# vs concurrent ingest and follower-served queries).
TSAN_BUILD_DIR="${TSAN_BUILD_DIR:-build-tsan}"
cmake -B "$TSAN_BUILD_DIR" -S . -DPAW_SANITIZE=thread
TSAN_TESTS=(wal_group_commit_test sharded_store_test
            background_compaction_test thread_pool_test server_test
            replication_test metrics_test trace_test view_cache_test
            dp_counters_test)
cmake --build "$TSAN_BUILD_DIR" -j "$JOBS" --target "${TSAN_TESTS[@]}"
for t in "${TSAN_TESTS[@]}"; do
  echo "-- $t (tsan)"
  "$TSAN_BUILD_DIR/$t" --gtest_brief=1
done

echo "== OK =="
