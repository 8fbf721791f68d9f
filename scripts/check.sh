#!/usr/bin/env bash
# Tier-1 verification gate for femtocr. CI runs this on every push/PR; run
# it locally before merging. Steps:
#
#   1. gofmt -s     — formatting (and simplification) drift fails the gate
#   2. go vet       — the compiler-adjacent standard checks
#   3. go build     — the whole module must compile
#   4. femtovet     — the domain-aware analyzer suite (determinism, units,
#                     RNG provenance, index domains, probability ranges,
#                     float comparisons, dropped errors), built once and run
#                     against the checked-in baseline
#   5. determinism  — the parallel-replication regression: figures must be
#                     byte-identical for workers=1, 4, and GOMAXPROCS, run
#                     under the race detector (named explicitly so a test
#                     rename can't silently drop the gate)
#   6. go test -race — all tests under the race detector
#   7. perfbench     — the benchmark module's own tests (a separate module,
#                     so step 6 skips it): its traced layer replays must
#                     match sim.Run and packetsim.Run bit for bit
#   8. metro smoke   — a quick-scale generated metro through the sharded
#                     engine end to end (femtosim -scenario metro)
#   9. warm smoke    — a warm-started dual run through femtosim must report
#                     the bitwise-identical full-precision PSNR as the cold
#                     run (the warm-start correctness contract, end to end)
#
# The allocation-free hot-path contract is enforced by the femtovet hotpath
# analyzer (step 4) and the AllocsPerRun pins in internal/core/alloc_test.go
# and internal/sim/alloc_test.go (step 6).
#
# Both -race steps run with GOMAXPROCS=4: the CI container exposes a single
# CPU (see the 1-CPU caveat the bench scripts record in BENCH_*.json), and
# with GOMAXPROCS=1 goroutines barely interleave, so the race detector would
# exercise almost none of the schedules it exists to catch. The override is
# echoed into the CI log so a run's effective parallelism is auditable.
#
# Opt-in extras:
#   FEMTOCR_FUZZ=1  — also run short fuzz smoke passes (-fuzztime=10s) over
#                     the core solver fuzz targets.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> gofmt -s"
unformatted=$(gofmt -s -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting (gofmt -s -w):" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet"
go vet ./...

echo "==> go build"
go build ./...

echo "==> femtovet"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/femtovet" ./cmd/femtovet
"$tmp/femtovet" -baseline femtovet.baseline.json ./...

echo "==> parallel determinism (workers=1/4/GOMAXPROCS, byte-identical figures)"
echo "    GOMAXPROCS=4 (forced: 1-CPU runners don't interleave goroutines)"
GOMAXPROCS=4 go test -race -run '^(TestParallelDeterminism|TestTopologyStudyDeterminism)$' \
    -count=1 ./internal/experiments

echo "==> go test -race"
echo "    GOMAXPROCS=4 (forced: 1-CPU runners don't interleave goroutines)"
GOMAXPROCS=4 go test -race ./...

echo "==> perfbench tests (separate module; replays pinned to the engines)"
(cd perfbench && go test -short -count=1 ./...)

echo "==> metro smoke (sharded engine end to end through femtosim)"
go run ./cmd/femtosim -scenario metro -metro-fbs 24 -metro-users 2 \
    -gops 1 -shards 4 >/dev/null

echo "==> warm-start smoke (warm PSNR must equal cold bitwise)"
warm_psnr=$(go run ./cmd/femtosim -scenario single -dual -warmstart -warmstats \
    -gops 4 | awk '/^WARMSTATS/ {for (i = 2; i <= NF; i++) {
        split($i, kv, "="); if (kv[1] == "psnr") print kv[2] }}')
cold_psnr=$(go run ./cmd/femtosim -scenario single -dual -warmstats \
    -gops 4 | awk '/^WARMSTATS/ {for (i = 2; i <= NF; i++) {
        split($i, kv, "="); if (kv[1] == "psnr") print kv[2] }}')
if [ -z "$warm_psnr" ] || [ "$warm_psnr" != "$cold_psnr" ]; then
    echo "warm-start smoke: warm PSNR '$warm_psnr' != cold PSNR '$cold_psnr'" >&2
    exit 1
fi

if [ -n "${FEMTOCR_FUZZ:-}" ]; then
    echo "==> fuzz smoke (FEMTOCR_FUZZ set)"
    go test -run='^$' -fuzz='^FuzzWaterfill$' -fuzztime=10s ./internal/core
    go test -run='^$' -fuzz='^FuzzGreedyChannels$' -fuzztime=10s ./internal/core
fi

echo "check.sh: all gates passed"
