#!/usr/bin/env bash
# The CI pipeline. Both `make ci` and .github/workflows/ci.yml run this
# script and nothing else, so the local gate and the hosted gate are the
# same check by construction.
#
# Stages:
#    1. gofmt (fails on any unformatted .go file outside .bench_build/,
#       the benchmark's Go caches) + go vet + build + full test suite,
#       among it the memory gate TestLoadRetainsNoRowHeaders
#       (internal/workload — the heap New + Load retains does not grow
#       from a 50 GB to a 200 GB instance: every System shares the
#       loader's row headers) and the exact allocation gates, among
#       them TestAggregateAllocations (internal/engine) and
#       TestFilterTreeAddAllocations (internal/matching — indexing one
#       view allocates at 10 000 entries within 2x of what it does at
#       100: nothing that grows with the index is copied)
#    2. full race-detector run (the concurrency suite's anchor)
#    3. shuffled double run — flushes ordering-dependent tests
#    4. chaos smoke — the seeded fault-injection and cancellation suite
#       under the race detector: every surviving query byte-identical to
#       the fault-free run, no leaked goroutines, the pool consistent,
#       and quarantine restores nothing with workers on either — a lost
#       range comes back only through a later query
#       (TestChaosBackgroundQuarantineLeavesRangeToQueries)
#    5. serving smoke — the HTTP frontend's admission and drain
#       suite under the race detector in shuffled order (stage 2 already
#       ran it in declaration order)
#    6. crash-recovery chaos — the datastore suite, the core recovery
#       suite, the kill -9 warm-restart test under the race detector, and
#       the journal-before-return rule with a worker draining
#       (TestAppendJournaledBeforeReturnWithWorkers: every append_rows
#       record is in the store when Append returns)
#    7. staticcheck at a pinned version, when installed (the workflow
#       installs it; local runs skip it with a note — and a workflow
#       warning annotation — rather than demanding the tool)
#    8. microbench smoke — the engine's layer microbenchmarks once
#       each, among them the probe kernel's two-output pass
#       (BenchmarkProbe/join+project+select5pct+capture10pct) and its
#       one-pass join chains (BenchmarkProbe/chain+select5pct and
#       chain+select5pct+capture10pct: fact ⋈ dim ⋈ small dim), the
#       manager's planning section (core BenchmarkPlanSection) and the
#       signature index's Add at 100 and 10 000 entries (matching
#       BenchmarkFilterTreeAdd): they must run, their numbers are
#       advisory (the exact allocation gates are
#       TestFusedProbeAllocations — one output and, serving a ranged
#       capture, two — TestFusedChainAllocations — the same for a chain,
#       with nothing that grows with the inner join it never writes —
#       TestAggregateAllocations and, for BenchmarkFilterTreeAdd,
#       TestFilterTreeAddAllocations, all part of stage 1).
#       Every registered (paper) experiment already ran at short scale
#       in stage 1, with its output checked byte for byte
#       (internal/bench TestExperimentsGolden). Wall-clock performance
#       is measured by benchmark/ (see benchmark/README.md), not here
#    9. sharded-cluster smoke — the full scatter-gather suite plus the
#       multi-process chaos tests under the race detector: a coordinator
#       over three real shard subprocesses answers byte-identically to
#       one shard, survives a kill -9 of one shard, and fails queries
#       for the dead range with a 503 naming it; a replicated cluster
#       (two groups x two replicas as subprocesses) absorbs a kill -9 of
#       a primary mid-burst with zero client-visible failures and
#       byte-identical results; and the failover/prober suite (with its
#       goroutine-leak checks) re-runs fresh, among it the
#       one-attempt-per-subquery check (a slow primary is waited out,
#       never raced against its follower), transient 503s that fail
#       only the queries they hit, the prober assigning its range to a
#       replica that was unreachable at Init, a dead group failing reads
#       with a 503 naming its range, a restarted coordinator serving the
#       same cluster, and set-once range ownership on the serving tier
#   10. ingest smoke — the batched append path under the race detector:
#       the core delta-propagation suite with the inline retry queue, the
#       lagging-view guard, the journal-before-return rule
#       (TestAppendJournaledBeforeReturnWithWorkers) and the one-record
#       append (TestAppendJournalsOnlyItsRows: staleness is the marks
#       trailing the counts, so an append journals its append_rows record
#       and nothing per dependent view), the read snapshot
#       (a query reads the state it was planned against across an append,
#       a view captured before an append registers at the snapshot and is
#       refreshed, files removed after planning do not reach the query:
#       TestQueryReadsOneState, TestCaptureRegistersAtSnapshot,
#       TestPlannedFilesSurviveRemoval), the all-template
#       delta-vs-remat property tests with the sublinear-refresh check,
#       the serving tier's /append suite (an append burst racing a query
#       burst, concurrent appends each reporting their own batch,
#       idempotency-token retries landing rows once, bad-request and
#       ownership rejections, a stalled request body answered 400 once
#       bodyReadTimeout passes, its admission place given back
#       (TestStalledBodyGivesBackItsPlace), a kill -9 mid-ingest whose
#       warm restart replays the journal to byte-identical results), and
#       the coordinator routing suite (keyed split, keyless broadcast, a dead
#       group failing the batch with a 502, a retried token landing once,
#       a batch landing on every replica of a replicated group)
#   11. fuzz smoke — five seconds each of stdlib fuzzing (no network, no
#       corpus download) of the one cell codec, relation.Table's JSON
#       form that journal records and snapshots go through (no panic on
#       arbitrary bytes, decode → encode → decode is a fixed point), of
#       the POST /append body decoder, ingest.DecodeSpec (no panic; an
#       accepted spec is rectangular with typed cells; encode → decode →
#       encode reproduces the bytes, which the coordinator relies on when
#       it re-encodes slices for replicas), and of the hex partial-sum
#       parser the coordinator's merge and the refresh path decode with,
#       FuzzMergePartialSums (no panic; accepted encodings merge to the
#       same float64 and the same encoding in any order; decode → encode
#       → decode is a fixed point), and of the POST /query body,
#       FuzzQuerySpec (decode, build and template key; a spec that
#       passes all three runs without panicking, and a valid query still
#       answers after it, so no input leaves the manager lock held),
#       of the interval algebra, FuzzAlgebra (Covers, Gaps, Union,
#       Disjoint, SplitAt and ClippedCover agree with a brute-force
#       point set in windows at both ends of int64 and around zero;
#       ClippedCover is full exactly when Gaps is empty), and of the
#       journal scan, FuzzScanJournal (no panic; a refused journal is
#       ErrJournalFormat and left byte-for-byte alone; an accepted one
#       is truncated to its intact prefix, Load returns that prefix's
#       records, and an append after reopening lands behind them), and
#       of the coordinator's merge, FuzzMergePlacement (typed partial
#       rows — Int, Float and String group keys; count, sum, avg, min
#       and max states — dealt to 1-4 shards in any order merge to the
#       same bytes as from one shard, or fail on both).
#       Their seed corpora already
#       ran as ordinary tests in stage 1; a failure leaves its input
#       under the package's testdata/fuzz to be checked in as a
#       regression seed
#
# Every internal/core invocation carries -timeout 120s (the package takes
# under 40 s with the race detector on two cores): the view manager has
# one non-reentrant lock, so the failure mode to guard is a
# self-deadlock, and it must fail the stage in seconds instead of hanging
# for go test's default ten minutes.

set -euo pipefail
cd "$(dirname "$0")/.."

GO=${GO:-go}
# The pinned staticcheck version: the workflow installs exactly this,
# and local runs with some other version get a loud note instead of a
# silently different gate.
STATICCHECK_VERSION=${STATICCHECK_VERSION:-2024.1.1}
CORE_TIMEOUT="-timeout 120s"

# skipped STAGE REASON — the loud-skip helper: local runs get a note,
# hosted runs also get a GitHub Actions warning annotation so a skipped
# stage is visible on the run summary, not buried in the log.
skipped() {
    echo "==> $1: skipped ($2)"
    if [ "${GITHUB_ACTIONS:-}" = "true" ]; then
        echo "::warning title=ci.sh stage skipped::$1: $2"
    fi
}

echo "==> gofmt"
UNFORMATTED=$("$($GO env GOROOT)/bin/gofmt" -l $(find . -path ./.bench_build -prune -o -name '*.go' -print))
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt -l lists files that need formatting:"
    echo "$UNFORMATTED"
    exit 1
fi

echo "==> vet"
$GO vet ./...

echo "==> build"
$GO build ./...

# Stages 1-3 run every package; internal/core separately, for its timeout.
OTHERS=$($GO list ./... | grep -v '/internal/core$')

echo "==> test"
$GO test $OTHERS
$GO test $CORE_TIMEOUT ./internal/core

echo "==> race"
$GO test -race $OTHERS
$GO test -race $CORE_TIMEOUT ./internal/core

echo "==> shuffle (x2)"
$GO test -shuffle=on -count=2 $OTHERS
$GO test -shuffle=on -count=2 $CORE_TIMEOUT ./internal/core

echo "==> chaos smoke (race)"
$GO test -race $CORE_TIMEOUT -run 'TestChaos|TestFragmentReadFault|TestMaterializeFaults|TestPermanentMaterialize|TestProcessQueryContext' ./internal/core
$GO test -race -run 'TestRunContext|TestForEachTask|TestViewScanReadFault' ./internal/engine

echo "==> serving smoke (race, shuffled)"
$GO test -race -shuffle=on ./internal/server

echo "==> crash-recovery chaos (race)"
$GO test -race ./internal/datastore
$GO test -race $CORE_TIMEOUT -run 'TestRecovery|TestSnapshotNoop|TestAppendJournaledBeforeReturnWithWorkers' ./internal/core
$GO test -race -run 'TestCrashRecoveryWarmRestart|TestLimiterAbandonHandoverRace' ./internal/server

if command -v staticcheck >/dev/null 2>&1; then
    echo "==> staticcheck ($(staticcheck -version 2>/dev/null || echo unknown))"
    installed=$(staticcheck -version 2>/dev/null || true)
    case "$installed" in
        *"$STATICCHECK_VERSION"*) ;;
        *) echo "note: installed staticcheck ($installed) is not the pinned $STATICCHECK_VERSION" ;;
    esac
    staticcheck ./...
else
    skipped "staticcheck" "not installed; CI pins $STATICCHECK_VERSION"
fi

echo "==> microbench smoke"
$GO test -run '^$' -bench . -benchtime 1x ./internal/engine
$GO test $CORE_TIMEOUT -run '^$' -bench BenchmarkPlanSection -benchtime 1x ./internal/core
$GO test -run '^$' -bench BenchmarkFilterTreeAdd -benchtime 1x ./internal/matching

echo "==> sharded-cluster smoke (race)"
$GO test -race ./internal/shard
$GO test -race -count=1 -run 'TestShardClusterSmoke|TestReplicatedClusterSmoke' ./internal/shard
$GO test -race -count=1 -run 'TestFailover|TestStragglerIsWaitedOutNotRaced|TestTransientErrorsDoNotCloseTheGroup|TestProber|TestProberAssignsRangeToLateReplica|TestAllReplicasDeadFailsNamingRange|TestRestartedCoordinatorServesTheSameCluster' ./internal/shard
$GO test -race -count=1 -run 'TestOwnedRangeIsAssignedOnce' ./internal/server

echo "==> ingest smoke (race)"
$GO test -race -count=1 $CORE_TIMEOUT -run 'TestAppend|TestCacheInvalidationOnAppend|TestBackgroundRefresh|TestEmptyAppend|TestInlineRetryBacklog|TestMaterializeSkipsViewLaggingAppend|TestQueryReadsOneState|TestCaptureRegistersAtSnapshot|TestPlannedFilesSurviveRemoval' ./internal/core
$GO test -race -count=1 -run 'TestDeltaRefresh|TestSteadyStateRefresh' .
$GO test -race -count=1 -run 'TestAppendEndpoint|TestAppendIdempotencyToken|TestConcurrentAppendsReportTheirOwnBatch|TestAppendBadRequests|TestAppendOwnership|TestAppendQueryConcurrentSmoke|TestStalledBodyGivesBackItsPlace|TestCrashRecoveryMidIngest' ./internal/server
$GO test -race -count=1 -run 'TestCoordinatorAppend' ./internal/shard

echo "==> fuzz smoke"
$GO test -run '^$' -fuzz FuzzTableJSON -fuzztime 5s ./internal/relation
$GO test -run '^$' -fuzz FuzzDecodeSpec -fuzztime 5s ./internal/ingest
$GO test -run '^$' -fuzz FuzzMergePartialSums -fuzztime 5s ./internal/engine
$GO test -run '^$' -fuzz FuzzQuerySpec -fuzztime 5s ./internal/server
$GO test -run '^$' -fuzz FuzzAlgebra -fuzztime 5s ./internal/interval
$GO test -run '^$' -fuzz FuzzScanJournal -fuzztime 5s ./internal/datastore
$GO test -run '^$' -fuzz FuzzMergePlacement -fuzztime 5s ./internal/shard

echo "==> ci passed"
