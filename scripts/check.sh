#!/usr/bin/env bash
# check.sh — the repo's single verification gate. CI runs exactly this
# script, and so should you before pushing: if it exits 0, CI agrees.
#
# Stages, cheap to expensive: formatting, vet (full suite, then the
# concurrency/format analyzers named explicitly so a stock-vet regression
# cannot silently drop them), build, the cross-arch build of the non-amd64
# kernel fallback, erlint (the repo-specific invariant
# suite in cmd/erlint), the race-enabled tests, the non-race allocation
# gates, one iteration of every benchmark, the separate bench module, and the erserve daemon smoke test (real
# binary, real sockets, real SIGTERM drain).
#
# govulncheck is intentionally absent: it needs network access to the
# vulnerability database and this module is stdlib-only and built offline.
# The placeholder lives in .github/workflows/ci.yml next to the other jobs;
# enable it there when the build environment gains network access.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet"
go vet ./...

echo "==> go vet (explicit: copylocks, loopclosure, printf)"
go vet -copylocks -loopclosure -printf ./...

echo "==> go build"
go build ./...

# The dense chain's row kernel has an amd64 assembly body; every other
# architecture builds the Go loop behind a build constraint. Vet the
# kernel packages for arm64 and build the module for 386, so the
# fallback cannot rot unseen on an amd64 CI host.
echo "==> cross-arch build (arm64 vet, 386 build)"
GOARCH=arm64 go vet ./internal/core/ ./internal/matrix/ && GOARCH=386 go build ./...

# Build the linter once, then run each analyzer as its own named step so a
# failure log says *which* invariant broke (lock discipline vs durability
# protocol vs cancellation), not just "erlint failed". The names come from
# `erlint -list` (first column), so lint.All() is the only registry. The
# final full-suite pass catches what the per-analyzer loop cannot:
# stale-directive detection only fires for directives whose every named
# analyzer ran.
echo "==> erlint (build)"
erlint_bin=$(mktemp -d)/erlint
trap 'rm -rf "$(dirname "$erlint_bin")"' EXIT
go build -o "$erlint_bin" ./cmd/erlint
analyzers=$("$erlint_bin" -list | awk '{print $1}')
for analyzer in $analyzers; do
    echo "==> erlint: $analyzer"
    "$erlint_bin" -enable "$analyzer" ./...
done
echo "==> erlint: full suite (stale-directive audit)"
"$erlint_bin" ./...

echo "==> go test -race -shuffle=on"
go test -race -shuffle=on ./...

# The allocation gates (alloc_test.go in the root package, core, engine,
# parallel and textproc) are built only without -race: the race detector instruments
# allocation and inflates AllocsPerRun. The race suite above therefore
# never compiles them, so they run here as their own non-race step.
echo "==> allocation gates (non-race)"
go test -count=1 -run 'Allocs' . ./internal/core/ ./internal/engine/ ./internal/parallel/ ./internal/textproc/

# go vet compiles the benchmarks but nothing else runs them; one iteration
# of each catches a benchmark that no longer runs against the API it
# exercises.
echo "==> benchmarks (one iteration each)"
go test -run '^$' -bench . -benchtime 1x ./...

# bench/ is a module of its own (it points repro at ..), so the root
# `go build ./...` and `go test ./...` above never compile it. Vet and test
# it explicitly, or an API change the benchmark depends on slips through.
echo "==> bench module (vet + test)"
(cd bench && go vet ./... && go test ./...)

# Named explicitly even though the full suite above already ran it: this
# is the acceptance test for the durability contract (kill -9 a writer,
# replay, verify every acknowledged record), and a future -run filter or
# test-cache tweak must not be able to skip it silently.
echo "==> crash-recovery acceptance (SIGKILL + replay)"
go test -race -count=1 -run 'TestCrashRecoveryKill9' ./internal/faultcheck/

# Likewise named: the exactly-once acceptance. Retried mutations driven
# through the network-fault proxy (cut mid-request, dropped responses,
# resets) — with a SIGKILL crash-restart in the middle — must journal each
# logical request exactly once.
echo "==> exactly-once chaos acceptance (netfault proxy + SIGKILL)"
go test -race -count=1 -run 'TestNetFaultExactlyOnce' ./internal/faultcheck/

echo "==> erserve smoke (boot, resolve, SIGKILL recovery, drain)"
./scripts/smoke_erserve.sh

echo "All checks passed."
