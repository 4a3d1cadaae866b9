GO ?= go

.PHONY: check lint vet build test race race-ingest bench

check:
	./scripts/check.sh

# Static analysis only: stock go vet plus sketchvet, the project's own
# analyzer suite (lock annotations, WAL append-before-apply, bit-exact
# hygiene, docs coverage). Also part of `make check`.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/sketchvet ./...

# Focused race pass over the concurrent ingest/distributed paths (also
# part of `make check`).
race-ingest:
	$(GO) test -race -count=2 ./internal/ingest ./internal/distributed

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench runs the repository benchmark (BENCHMARK.json): a live sketchd
# driven over TCP per workload, with end-to-end and per-layer metrics
# (see bench/README.md for flags, -trace, -out and -compare).
bench:
	bash bench/run.sh
