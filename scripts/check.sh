#!/usr/bin/env bash
# check.sh — the repo's tier-1 gate plus the race detector over the
# concurrent ingest/session code, gofmt enforcement, coverage floors on
# the operator-facing layers, and sketchvet, the project's own static
# analysis suite (lock discipline, WAL append-before-apply, bit-exact
# hygiene, and docs coverage for metrics/flags/keywords). Run from
# anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt -l"
UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -race ./..."
go test -race ./...

# Batch coalescing lives on the producer side of the ingest engine's
# mutex, the digest cache is shared by every coordinator session under
# its own lock, the distributed layer drives the same engine from
# network goroutines, and the cq engine's window/group
# state is mutated under the coordinator lock while watch rounds read
# it; run those packages under the race detector twice more with fresh
# schedules so the contended paths get extra interleavings in tier-1.
# The query kernel's concurrent readers of shared family views get the
# same treatment (scoped to the kernel tests — the whole core package
# under -race -count=2 is minutes of statistical tests).
echo "== go test -race -count=2 ./internal/ingest ./internal/distributed ./internal/cq"
go test -race -count=2 ./internal/ingest ./internal/distributed ./internal/cq
# The sharded coordinator's whole point is concurrent sessions on
# disjoint shards; force at least 4-way parallelism under the race
# detector so shard/fence/vmu interleavings are exercised even when
# the gate runs on a small host (GOMAXPROCS otherwise equals the core
# count, which can be 1 on CI).
echo "== GOMAXPROCS=4 go test -race -count=1 ./internal/distributed"
GOMAXPROCS=4 go test -race -count=1 ./internal/distributed
echo "== go test -race -count=2 -run 'Compiled|Kernel|Parallel|View|Version' ./internal/core"
go test -race -count=2 -run 'Compiled|Kernel|Parallel|View|Version' ./internal/core
# Query views are maintained by delta: every Family mutator must mark
# the buckets it writes dirty, or estimates silently read a stale view.
# Ten seconds of live fuzzing against the rebuilt-from-counters oracle
# keeps that invariant honest as mutators are added.
echo "== go test -run=NONE -fuzz=FuzzQueryViewMaintained -fuzztime=10s ./internal/core"
go test -run=NONE -fuzz=FuzzQueryViewMaintained -fuzztime=10s ./internal/core
# The query kernel is the only estimator; ten seconds of live fuzzing
# against the interpreted reference (random small families with
# deletions, random expressions, one 65-stream shape) keeps every
# estimate bit-identical to it.
echo "== go test -run=NONE -fuzz=FuzzEstimateMatchesReference -fuzztime=10s ./internal/core"
go test -run=NONE -fuzz=FuzzEstimateMatchesReference -fuzztime=10s ./internal/core
# Counters store one side of each second-level pair and derive the
# other from the bucket total: the replay loops walk set digest bits
# against a two-sided reference, and the decoders reject pairs that do
# not sum to their total. Ten seconds each keeps both honest.
echo "== go test -run=NONE -fuzz=FuzzDigestEquivalence -fuzztime=10s ./internal/core"
go test -run=NONE -fuzz=FuzzDigestEquivalence -fuzztime=10s ./internal/core
echo "== go test -run=NONE -fuzz=FuzzReadFamily -fuzztime=10s ./internal/core"
go test -run=NONE -fuzz=FuzzReadFamily -fuzztime=10s ./internal/core
# Every raw update batch — in the ingest engine, in each coordinator
# session, in WAL recovery — is folded by ingest.Coalescer; ten seconds
# against the reference fold (wal.DigestUpdates) and direct
# per-element updates, with and without a digest cache.
echo "== go test -run=NONE -fuzz=FuzzCoalesce -fuzztime=10s ./internal/ingest"
go test -run=NONE -fuzz=FuzzCoalesce -fuzztime=10s ./internal/ingest
# The session codec is the first code a peer's bytes reach: the update
# batch and delta decoders must reject any payload they cannot parse
# without panicking, and round-trip whatever they accept exactly.
echo "== go test -run=NONE -fuzz='^FuzzDecodeUpdateBatch\$' -fuzztime=10s ./internal/distributed"
go test -run=NONE -fuzz='^FuzzDecodeUpdateBatch$' -fuzztime=10s ./internal/distributed
echo "== go test -run=NONE -fuzz='^FuzzDecodeDelta\$' -fuzztime=10s ./internal/distributed"
go test -run=NONE -fuzz='^FuzzDecodeDelta$' -fuzztime=10s ./internal/distributed

# The WAL is the layer that must never lie about what is on disk; run
# it under the race detector twice (appenders, the snapshotter, and
# replay share the log), and run the kill -9 crash-recovery
# integration tests explicitly so a test-filter change can never
# silently drop them from the gate.
echo "== go test -race -count=2 ./internal/wal"
go test -race -count=2 ./internal/wal
# Recovery decodes every record a crash left on disk, including the
# read-only digest records of older binaries: the decoder must reject
# what it cannot parse without panicking and round-trip what it
# accepts.
echo "== go test -run=NONE -fuzz='^FuzzDecodeBody\$' -fuzztime=10s ./internal/wal"
go test -run=NONE -fuzz='^FuzzDecodeBody$' -fuzztime=10s ./internal/wal
echo "== go test -run 'TestCrashRecoveryBitIdentical|TestViewCatalogSurvivesCrash|TestInspectWALCorruptSegment' -count=1 ./cmd/sketchd"
go test -run 'TestCrashRecoveryBitIdentical|TestViewCatalogSurvivesCrash|TestInspectWALCorruptSegment' -count=1 ./cmd/sketchd

# Layer-probe smoke: one tiny traced round of forward_hot runs every
# per-layer probe of the repository benchmark (bench/layers.go: hash,
# digest, replay, merge, estimate, ingest, WAL, wire, recovery) against
# a live sketchd, so a probe that breaks fails the gate, not the next
# measurement (full numbers come from bash bench/run.sh).
echo "== go run ./bench -smoke -trace 1 -workload forward_hot"
go run ./bench -smoke -trace 1 -workload forward_hot
# The multi-site example: four sites, each an ingest engine shipping
# delta flushes over its own session to one coordinator. No test runs
# the examples, so run this one end to end.
echo "== go run ./examples/distributed"
go run ./examples/distributed
# Wire-frame bench smokes: the codec benchmarks must at least compile
# and complete one iteration.
echo "== go test -run=NONE -bench 'UpdateBatch(Encode|Decode)Frame$' -benchtime=1x ./internal/distributed"
go test -run=NONE -bench 'UpdateBatch(Encode|Decode)Frame$' -benchtime=1x ./internal/distributed
# Shard + coordinator-digest-cache smoke: the striped apply path and
# the cached raw-update path must complete a benchmark iteration.
echo "== go test -run=NONE -bench 'CoordApply(DigestCache|ShardsParallel)' -benchtime=1x ./internal/distributed"
go test -run=NONE -bench 'CoordApply(DigestCache|ShardsParallel)' -benchtime=1x ./internal/distributed

# Coverage floors on the operator-facing layers: the metrics/logging
# layer is what operators debug everything else with, recovery
# correctness is only as good as the tests pinning the on-disk
# formats, and the cq window/group semantics are contracts QUERIES.md
# promises to users.
cover_floor() {
    local pkg="$1" floor="$2" cover
    echo "== go test -cover ${pkg} (floor ${floor}%)"
    cover=$(go test -cover "$pkg" | awk '{for (i=1; i<=NF; i++) if ($i == "coverage:") {sub(/%.*/, "", $(i+1)); print $(i+1)}}')
    if [ -z "$cover" ]; then
        echo "check: could not read ${pkg} coverage" >&2
        exit 1
    fi
    if awk -v c="$cover" -v f="$floor" 'BEGIN{exit !(c < f)}'; then
        echo "check: ${pkg} coverage ${cover}% is below the ${floor}% floor" >&2
        exit 1
    fi
    echo "${pkg} coverage: ${cover}%"
}
cover_floor ./internal/obs 80
cover_floor ./internal/wal 80
cover_floor ./internal/cq 80

# sketchvet: the project's static-analysis suite. guardedby proves the
# `// guarded by:` lock annotations, walbefore proves WAL
# append-before-apply on the coordinator, bitexact keeps opted-in
# packages free of nondeterministic output constructs, and obslint
# replaces the old grep-based docs lint — every registered metric,
# sketchd flag, and CQ keyword must be named AND documented in
# OPERATIONS.md / QUERIES.md, resolved through the type checker instead
# of regexes (so loop-registered and Label-wrapped names are seen too).
echo "== sketchvet ./..."
go run ./cmd/sketchvet -timing ./...
echo "sketchvet: OK"

echo "check: OK"
