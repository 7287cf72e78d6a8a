#!/usr/bin/env bash
# run.sh — build the benchmark from source and run it. Run from the root of
# a checkout; everything it builds or writes stays under .bench_build/.
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run of one workload in a fresh process; the last line of
#       standard output is the JSON result
#   bash bench/run.sh --workload all --seed <n> [--trace <0|1>]
#       every workload, one fresh process each
#   bash bench/run.sh -sets <N> [-runs <R>]
#       N full sets of R untraced runs per workload (seeds 1..R, the same in
#       every set), alternating the workload order between sets; prints each
#       end-to-end metric's spread across seeds against its bound and fails
#       if a spread or the drift between sets exceeds it
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
# Keep the toolchain's caches, temporary files and telemetry inside the
# checkout, and never let it reach for the network.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
    GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
    XDG_CACHE_HOME="$build/cache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

bin="$build/bench"
(cd "$root/bench" && go build -o "$bin" .)

# The workloads BENCHMARK.json declares, in its order.
workloads="batch-100k replicas warm-100k serve-20k"

if [ "${1:-}" = "-sets" ]; then
    sets=${2:?usage: run.sh -sets N [-runs R]}
    runs=10
    if [ "${3:-}" = "-runs" ]; then
        runs=${4:?usage: run.sh -sets N [-runs R]}
    fi
    seconds=$(grep -o '"run_seconds": *[0-9]*' "$root/BENCHMARK.json" | grep -o '[0-9]*$')
    out="$build/sets/results-$(date +%Y%m%d-%H%M%S).tsv"
    mkdir -p "$(dirname "$out")"
    for set in $(seq 1 "$sets"); do
        order=$workloads
        if [ $((set % 2)) -eq 0 ]; then
            order=$(echo "$workloads" | tr ' ' '\n' | tac | tr '\n' ' ')
        fi
        for seed in $(seq 1 "$runs"); do
            for w in $order; do
                line=$("$bin" -workload "$w" -seed "$seed" -seconds "$seconds" -trace 0 | tail -n 1) || true
                printf '%s\t%s\t%s\t%s\n' "$set" "$w" "$seed" "$line" >> "$out"
                echo "set $set seed $seed $w: $line" >&2
            done
        done
    done
    echo "results: $out" >&2
    exec "$bin" -report "$out"
fi

# A single run, or every workload in turn for --workload all: a flag given
# twice takes its last value, so appending -workload overrides "all".
all=false
prev=""
for a in "$@"; do
    if { [ "$prev" = "--workload" ] || [ "$prev" = "-workload" ]; } && [ "$a" = "all" ]; then
        all=true
    fi
    prev=$a
done
if $all; then
    status=0
    for w in $workloads; do
        "$bin" "$@" -workload "$w" || status=1
    done
    exit $status
fi
exec "$bin" "$@"
