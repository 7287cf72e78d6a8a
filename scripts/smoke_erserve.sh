#!/usr/bin/env bash
# smoke_erserve.sh — end-to-end smoke test of the resolution daemon.
#
# Boots cmd/erserve on an ephemeral port, resolves a benchmark replica over
# HTTP, checks the observability endpoints, then sends SIGTERM and requires
# a clean graceful drain (exit code 0). A second phase boots the daemon
# with -data-dir, builds a collection, SIGKILLs the process mid-flight and
# requires the restarted daemon to recover every acknowledged mutation and
# serve identical resolve results. Then `erctl replay` streams mutation
# traces through the retrying client; the checks cover the delta-scoped
# resolves, the summary line and the final record count. Run by
# scripts/check.sh and CI; it is the one test that exercises the real
# binary, real sockets and real signals rather than httptest plumbing.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
pid=""
trap 'if [ -n "$pid" ]; then kill -9 "$pid" 2>/dev/null || true; fi; rm -rf "$workdir"' EXIT

go build -o "$workdir/erserve" ./cmd/erserve
go build -o "$workdir/erctl" ./cmd/erctl

# boot starts the daemon with the given extra flags and scrapes its
# ephemeral listen address into $base. The daemon prints "erserve
# listening on <addr>" once bound.
out="$workdir/erserve.log"
boot() {
    : >"$out"
    "$workdir/erserve" -addr 127.0.0.1:0 -quiet -drain-budget 10s "$@" >"$out" 2>&1 &
    pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/^erserve listening on //p' "$out" | head -n1)
        [ -n "$addr" ] && break
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "erserve never reported its listen address:" >&2
        cat "$out" >&2
        exit 1
    fi
    base="http://$addr"
}

# wait_ready polls /readyz until recovery finishes (or gives up).
wait_ready() {
    for _ in $(seq 1 100); do
        curl -sf "$base/readyz" >/dev/null 2>&1 && return 0
        sleep 0.1
    done
    echo "erserve never became ready:" >&2
    curl -s "$base/readyz" >&2 || true
    exit 1
}

boot

echo "==> erserve smoke: healthz + readyz"
curl -sf "$base/healthz" >/dev/null
curl -sf "$base/readyz" >/dev/null

echo "==> erserve smoke: resolve replica"
resp=$(curl -sf -X POST "$base/resolve" -H 'Content-Type: application/json' \
    -d '{"replica":"restaurant","scale":0.2,"seed":7}')
if ! echo "$resp" | grep -q '"state": "completed"'; then
    echo "unexpected resolve response: $resp" >&2
    exit 1
fi

echo "==> erserve smoke: stats"
stats=$(curl -sf "$base/stats")
for needle in '"completed": 1' '"in_flight": 0' '"draining": false'; do
    if ! echo "$stats" | grep -q "$needle"; then
        echo "stats missing $needle: $stats" >&2
        exit 1
    fi
done

echo "==> erserve smoke: SIGTERM drain"
kill -TERM "$pid"
# A clean graceful drain must exit 0; set -e turns anything else into a
# smoke failure.
wait "$pid"
pid=""

# --- Phase 2: durable collections survive SIGKILL -----------------------

datadir="$workdir/data"

echo "==> erserve smoke: durable boot (-data-dir)"
boot -data-dir "$datadir"
wait_ready

echo "==> erserve smoke: create collection + upsert records"
curl -sf -X POST "$base/collections" -H 'Content-Type: application/json' \
    -d '{"name":"smoke"}' >/dev/null
i=0
for text in \
    "joes pizza 123 main st new york" \
    "joe's pizza 123 main street new york ny" \
    "blue bottle coffee 300 webster st oakland" \
    "blue bottle coffee co 300 webster street oakland ca" \
    "golden gate hardware supply san francisco"; do
    curl -sf -X PUT "$base/collections/smoke/records/r$i" \
        -H 'Content-Type: application/json' \
        -d "{\"text\":\"$text\"}" >/dev/null
    i=$((i + 1))
done

echo "==> erserve smoke: erctl CLI (retrying client, taxonomy exit codes)"
erctl() { "$workdir/erctl" -addr "$base" "$@"; }
erctl ready >/dev/null
erctl put smoke r5 "mission chinese food 2234 mission st" >/dev/null
erctl ls | grep -q 'smoke' || { echo "erctl ls missing collection" >&2; exit 1; }
erctl ls smoke | grep -q 'r5' || { echo "erctl put did not land" >&2; exit 1; }
erctl del smoke r5 >/dev/null
# Creating an existing collection must fail with the documented conflict
# exit code (4), not a generic 1.
rc=0; erctl create smoke >/dev/null 2>&1 || rc=$?
if [ "$rc" != 4 ]; then
    echo "erctl create on existing collection exited $rc, want 4 (conflict)" >&2
    exit 1
fi
rc=0; erctl ls nosuch >/dev/null 2>&1 || rc=$?
if [ "$rc" != 3 ]; then
    echo "erctl ls on missing collection exited $rc, want 3 (not found)" >&2
    exit 1
fi
erctl stats | grep -q '"idempotency"' || { echo "erctl stats missing idempotency block" >&2; exit 1; }

before=$(curl -sf -X POST "$base/collections/smoke/resolve?pairs=1" \
    -H 'Content-Type: application/json' -d '{"options":{"seed":7}}')
if ! echo "$before" | grep -q '"state": "completed"'; then
    echo "unexpected collection resolve response: $before" >&2
    exit 1
fi

echo "==> erserve smoke: SIGKILL (no drain, no final snapshot)"
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""

echo "==> erserve smoke: restart + recovery"
boot -data-dir "$datadir"
wait_ready

records=$(curl -sf "$base/collections/smoke")
if ! echo "$records" | grep -q '"r4"'; then
    echo "restarted daemon lost records: $records" >&2
    exit 1
fi

after=$(curl -sf -X POST "$base/collections/smoke/resolve?pairs=1" \
    -H 'Content-Type: application/json' -d '{"options":{"seed":7}}')
# Identical corpus, identical options: the resolution outcome — counts,
# convergence, every match pair — must be identical across the crash. Only
# the job ID and wall-clock timings legitimately differ, so drop those
# lines and compare everything else byte for byte.
strip() {
    echo "$1" | grep -v '"job_id"\|_ms"'
}
if [ "$(strip "$before")" != "$(strip "$after")" ]; then
    echo "resolve results differ across crash-restart:" >&2
    echo "before: $before" >&2
    echo "after:  $after" >&2
    exit 1
fi

echo "==> erserve smoke: mutation-trace replay (delta-scoped resolve)"
# ergen writes a deterministic upsert/delete trace; erctl replay drives it
# through the retrying client. Resolves carry no option overrides, so they
# take the incremental path: the replay output must report the delta work
# split, and the second resolve of the trace must reuse prior components.
go build -o "$workdir/ergen" ./cmd/ergen
"$workdir/ergen" -records 60 -mutations 20 -resolve-every 10 \
    -name replaytrace -out "$workdir" >/dev/null
curl -sf -X POST "$base/collections" -H 'Content-Type: application/json' \
    -d '{"name":"replay"}' >/dev/null
replay_out=$(erctl replay replay "$workdir/replaytrace.mutations.jsonl")
echo "$replay_out"
if ! echo "$replay_out" | grep -q 'components re-fused'; then
    echo "replay resolves never took the delta-scoped path: $replay_out" >&2
    exit 1
fi
# The trace ends with back-to-back resolves; the last one mutated nothing,
# so it must re-fuse zero components.
if ! echo "$replay_out" | tail -n 2 | head -n 1 | grep -q 'delta 0/'; then
    echo "no-op resolve re-fused components: $replay_out" >&2
    exit 1
fi
stats=$(curl -sf "$base/stats")
for needle in '"delta_resolves": 3' '"resolver_rebuilds": 1'; do
    if ! echo "$stats" | grep -q "$needle"; then
        echo "stats missing $needle after replay: $stats" >&2
        exit 1
    fi
done

echo "==> erserve smoke: bulk erctl replay (300 upserts, 40 deletes, 1 resolve)"
# A trace written here, so its counts are known: 150 two-source entity
# pairs, then the first 40 records deleted, then one resolve. The summary
# line and the collection's final record count must both agree with it.
bulk="$workdir/bulk.mutations.jsonl"
{
    for i in $(seq 0 299); do
        e=$((i / 2))
        printf '{"op":"upsert","id":"b%03d","entity":"e%d","source":%d,"text":"brand%d model%d %d market street"}\n' \
            "$i" "$e" $((i % 2)) "$e" "$e" $((100 + e))
    done
    for i in $(seq 0 39); do
        printf '{"op":"delete","id":"b%03d"}\n' "$i"
    done
    echo '{"op":"resolve"}'
} >"$bulk"
erctl create bulk >/dev/null
bulk_out=$(erctl replay bulk "$bulk")
echo "$bulk_out"
if [ "$(echo "$bulk_out" | tail -n 1)" != "replayed 300 upserts, 40 deletes, 1 resolves" ]; then
    echo "unexpected bulk replay summary: $bulk_out" >&2
    exit 1
fi
bulk_records=$(erctl ls | awk -F '\t' '$1 == "bulk" { print $2 }')
if [ "$bulk_records" != 260 ]; then
    echo "bulk collection holds '$bulk_records' records after the replay, want 260" >&2
    exit 1
fi

echo "==> erserve smoke: SIGTERM drain (durable)"
kill -TERM "$pid"
wait "$pid"
pid=""

echo "erserve smoke passed."
