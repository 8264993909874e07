# Tier-1 verification plus the concurrency suite.

GO ?= go

.PHONY: all build test vet race bench verify lockcheck ci

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

# The engine's layer microbenchmarks, once each (allocs/op is exact,
# ns/op advisory; sustained performance is benchmark/run.sh).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/engine

verify: build test vet race

# Lock-order assertions: the lockcheck build tag compiles runtime
# checking into the manager's lock hierarchy, so ordering violations
# panic in tests instead of deadlocking in production.
lockcheck:
	$(GO) test -tags lockcheck ./internal/lockcheck ./internal/core

# The CI pipeline. The GitHub Actions workflow runs the same script, so
# the local and hosted gates cannot drift apart.
ci:
	./scripts/ci.sh
