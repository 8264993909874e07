package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"deepsea/internal/faults"
	"deepsea/internal/relation"
)

// The data path is parallel at two levels that share one worker budget:
//
//   - intra-operator: filter, project, join probe and aggregate split
//     row ranges into fixed-size chunks and merge per-chunk results in
//     chunk order;
//   - inter-operator: independent sibling subplans — the two inputs of
//     a join, and the stored-fragment scans plus per-gap remainder
//     subplans under a ViewScan — evaluate concurrently.
//
// Chunk boundaries and merge order depend only on input sizes — never
// on the worker count or on which tokens happened to be free — so every
// output byte (including the association of floating-point partial
// sums) is identical for every Parallelism setting. Workers only change
// which goroutine evaluates a chunk or subplan.

// chunkRows is the fixed chunk granularity of the parallel data path.
// Small enough to load-balance skewed chunks across workers, large
// enough that per-chunk bookkeeping is noise.
const chunkRows = 4096

// budget is the shared worker budget of one plan execution: a single
// token pool that intra-operator chunk workers and inter-operator
// subplan tasks both draw from, so nested fan-out cannot multiply into
// a thread explosion — a Run uses at most Parallelism goroutines no
// matter how operators nest. Acquisition never blocks: a task that gets
// no token runs inline on its caller's goroutine, which also makes the
// scheme deadlock-free by construction.
type budget struct {
	// tokens holds the extra workers beyond the calling goroutine
	// (capacity Parallelism-1).
	tokens chan struct{}
	// workers is the configured Parallelism (>= 1). Sizing decisions
	// (join bucket counts) use it so data layouts stay fixed by
	// configuration, never by runtime token availability.
	workers int

	// ctx, when non-nil, aborts the run: workers stop picking up tasks
	// once it is cancelled, and the run returns ctx.Err().
	ctx context.Context
	// faults, when non-nil, draws one Worker-site injection decision
	// per task.
	faults *faults.Injector
	// snap is the run's read snapshot: every base table and stored file
	// the plan reads comes from it.
	snap *Snapshot

	// err records the first failure of the run — an injected worker
	// fault, a recovered worker panic, or the context's cancellation.
	// hasErr is its lock-free fast flag, checked once per task.
	hasErr atomic.Bool
	errMu  sync.Mutex
	err    error
}

// newBudget returns a budget for par workers (par <= 1 means fully
// sequential execution).
func newBudget(par int) *budget {
	if par < 1 {
		par = 1
	}
	return &budget{tokens: make(chan struct{}, par-1), workers: par}
}

// tryAcquire takes a worker token if one is free; it never blocks.
func (b *budget) tryAcquire() bool {
	if b == nil {
		return false
	}
	select {
	case b.tokens <- struct{}{}:
		return true
	default:
		return false
	}
}

// release returns a token taken by tryAcquire.
func (b *budget) release() { <-b.tokens }

// par returns the configured worker count (1 for a nil budget).
func (b *budget) par() int {
	if b == nil {
		return 1
	}
	return b.workers
}

// fail records err as the run's failure if it is the first.
func (b *budget) fail(err error) {
	if b == nil || err == nil {
		return
	}
	b.errMu.Lock()
	if b.err == nil {
		b.err = err
		b.hasErr.Store(true)
	}
	b.errMu.Unlock()
}

// abortErr returns the error that should abort further work: the first
// recorded task failure, or the context's error once it is cancelled.
// Safe on a nil budget (sequential helpers and tests).
func (b *budget) abortErr() error {
	if b == nil {
		return nil
	}
	if b.hasErr.Load() {
		b.errMu.Lock()
		defer b.errMu.Unlock()
		return b.err
	}
	if b.ctx != nil {
		select {
		case <-b.ctx.Done():
			return b.ctx.Err()
		default:
		}
	}
	return nil
}

// numChunks returns how many fixed-size chunks n rows split into.
func numChunks(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + chunkRows - 1) / chunkRows
}

// chunkBounds returns the row range [lo, hi) of chunk c out of n rows.
func chunkBounds(c, n int) (lo, hi int) {
	lo = c * chunkRows
	hi = lo + chunkRows
	if hi > n {
		hi = n
	}
	return lo, hi
}

// forEachChunk runs fn(chunk, lo, hi) over every fixed-size chunk of n
// rows, drawing extra workers from the budget. With a nil budget or no
// free tokens it runs inline on the calling goroutine. fn must be safe
// to call concurrently for distinct chunks; chunks are handed out
// dynamically so skewed chunks do not serialize the rest.
func forEachChunk(b *budget, n int, fn func(chunk, lo, hi int)) {
	nc := numChunks(n)
	if nc == 0 {
		return
	}
	forEachTask(b, nc, func(c int) {
		lo, hi := chunkBounds(c, n)
		fn(c, lo, hi)
	})
}

// forEachTask runs fn(task) for task = 0..tasks-1 — the plain
// index-space pool behind forEachChunk, also used directly for
// non-chunked fan-out such as hash-bucket builds and ViewScan unions.
// The calling goroutine always works; helper goroutines join only while
// the shared budget has free tokens, and return their tokens when the
// task space drains. Task results must be written to per-task slots so
// that the caller can merge them in task order.
//
// Failure semantics: once the budget records an error (cancelled
// context, injected worker fault, worker panic) no further tasks start;
// tasks already running finish. Panics inside fn are recovered into the
// budget's error, so helper goroutines always return their tokens and
// wg.Wait never hangs — the caller observes the failure via
// b.abortErr(), and must not trust the per-task slots after one. All
// spawned goroutines have joined by return, even on failure, so a run
// never leaks workers.
func forEachTask(b *budget, tasks int, fn func(task int)) {
	if tasks <= 0 {
		return
	}
	var next atomic.Int64
	run := func() {
		defer func() {
			if r := recover(); r != nil {
				b.fail(fmt.Errorf("engine: worker panic: %v", r))
			}
		}()
		for {
			if b.abortErr() != nil {
				return
			}
			t := int(next.Add(1)) - 1
			if t >= tasks {
				return
			}
			if b != nil && b.faults != nil {
				if err := b.faults.Check(faults.Worker, ""); err != nil {
					b.fail(fmt.Errorf("engine: worker task: %w", err))
					return
				}
			}
			fn(t)
		}
	}
	var wg sync.WaitGroup
	for extra := 1; extra < tasks && b.tryAcquire(); extra++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer b.release()
			run()
		}()
	}
	run()
	wg.Wait()
}

// concatChunks assembles per-chunk row slices in chunk order — the
// deterministic merge step shared by the parallel operators.
func concatChunks(parts [][]relation.Row) []relation.Row {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]relation.Row, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}
