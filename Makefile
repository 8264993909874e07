# Tier-1 verification plus the concurrency suite.

GO ?= go

.PHONY: all build test vet race bench verify ci

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The concurrency suite: every package under the race detector,
# including the multi-goroutine ProcessQuery and determinism tests.
race:
	$(GO) test -race ./...

# The layer microbenchmarks, once each (the engine's allocs/op is exact,
# ns/op advisory; sustained performance is benchmark/run.sh).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/engine
	$(GO) test -run '^$$' -bench BenchmarkPlanSection -benchtime 1x ./internal/core

verify: build test vet race

# The CI pipeline. The GitHub Actions workflow runs the same script, so
# the local and hosted gates cannot drift apart.
ci:
	./scripts/ci.sh
