// Package maintain implements the background maintenance dataflow: a
// prioritized task queue drained by a bounded worker pool, so the query
// and append paths only enqueue maintenance tasks (refresh, materialize,
// split, merge, sweep) and return without paying for them. A pool built
// with zero workers is the same queue drained by its callers instead
// (Take, then Done) — how inline maintenance keeps its refresh retries.
//
// The shape follows claircore's matching architecture: concurrent
// workers consume a shared stream. Here a worker pops a batch of tasks
// and the executor applies them under a single acquisition of the
// manager lock.
//
// Ordering: tasks pop highest band first (refreshes before
// materialization before splits before merges before sweeps — the same
// relative order the inline maintenance section used), within a band by
// descending Φ value, and FIFO among equals. A task may carry a dedup
// key; enqueueing a key already pending is counted and dropped. Only
// refreshes carry one (the view id): a refresh reads live state when it
// applies, so one pending refresh covers every append before it. Tasks
// a query proposes carry none — the executor re-validates each against
// the live pool, so a second copy of one applies as a no-op.
// The queue is bounded: when full, new tasks are dropped and counted
// rather than blocking the query path. Dropped maintenance is never
// lost for good — the workload regenerates any still-profitable
// candidate on its next repetition.
package maintain

import (
	"container/heap"
	"context"
	"sort"
	"sync"
	"time"
)

// Kind classifies a maintenance task. The numeric value is its ordering
// band: higher bands drain first.
type Kind int

const (
	// KindSweep applies a query's maintenance residue: measured
	// candidate sizes and pool evictions.
	KindSweep Kind = iota
	// KindMerge merges co-accessed adjacent fragments.
	KindMerge
	// KindSplit materializes one fragment candidate (a refinement split
	// or a remainder-gap recovery).
	KindSplit
	// KindMaterialize materializes a selected view (whole or as its
	// initial fragments).
	KindMaterialize
	// KindRefresh brings a stale view fresh after a base-table append
	// (incremental delta propagation, or a drop when the delta cannot
	// be applied incrementally). Highest band: a stale view is skipped
	// by the planner, so refreshing it restores rewrite opportunities
	// every other band exists to exploit.
	KindRefresh

	numKinds
)

// String returns the kind's stable name (metrics, health surface).
func (k Kind) String() string {
	switch k {
	case KindSweep:
		return "sweep"
	case KindMerge:
		return "merge"
	case KindSplit:
		return "split"
	case KindMaterialize:
		return "materialize"
	case KindRefresh:
		return "refresh"
	}
	return "unknown"
}

// Task is one unit of deferred maintenance. The payload is opaque to
// this package; the executor knows how to apply it.
type Task struct {
	// Key dedupes pending tasks ("" = never deduped): a push whose key
	// is already pending is dropped. Give a key only to a task whose
	// pending copy does all the work a second copy would.
	Key string
	// Kind selects the ordering band and the latency bucket.
	Kind Kind
	// Priority orders tasks within a band (higher first) — the Φ value
	// of the candidate, when the planner had one.
	Priority float64
	// Payload is the executor's task description.
	Payload any
	// Err, set by the executor, marks the task failed for accounting.
	Err error

	seq      uint64
	enqueued time.Time
	popped   time.Time
}

// KindStats is the per-kind latency/count surface.
type KindStats struct {
	Kind string `json:"kind"`
	// Completed counts tasks of this kind the executor finished
	// (including failed ones — they completed their attempt).
	Completed uint64 `json:"completed"`
	// WaitSeconds is the cumulative enqueue→pop wait.
	WaitSeconds float64 `json:"wait_seconds"`
	// RunSeconds is the cumulative pop→done executor time, attributed
	// per task as an equal share of its batch's wall time.
	RunSeconds float64 `json:"run_seconds"`
}

// Stats is a consistent snapshot of the pool's counters. The identity
// Enqueued == Completed + Failed + Deduped + Dropped + Depth + InFlight
// holds at every snapshot; after a Drain, Depth and InFlight are zero,
// which is the "no lost maintenance" check.
type Stats struct {
	Workers  int `json:"workers"`
	Capacity int `json:"capacity"`
	// Depth is the number of tasks waiting in the queue.
	Depth int `json:"depth"`
	// InFlight is the number of popped tasks an executor (or a Take
	// caller) is applying.
	InFlight  int         `json:"in_flight"`
	Enqueued  uint64      `json:"enqueued"`
	Completed uint64      `json:"completed"`
	Failed    uint64      `json:"failed"`
	Deduped   uint64      `json:"deduped"`
	Dropped   uint64      `json:"dropped"`
	Kinds     []KindStats `json:"kinds,omitempty"`
}

// Executor applies one popped batch. It runs on a worker goroutine and
// may set Task.Err to mark individual tasks failed; everything else
// about the batch (locking, journaling) is its business.
type Executor func(batch []*Task)

// Pool is the bounded worker pool over the prioritized queue.
type Pool struct {
	exec     Executor
	capacity int
	batchMax int
	workers  int

	mu       sync.Mutex
	cond     *sync.Cond // signalled on push and on drain-relevant transitions
	heap     taskHeap
	pending  map[string]bool // keys of queued tasks, for dedup
	seq      uint64
	inflight int // tasks popped and not yet settled by Done
	closed   bool

	enqueued, completed, failed, deduped, dropped uint64
	kinds                                         [numKinds]KindStats

	wg sync.WaitGroup
}

// NewPool starts a maintenance pool with the given worker count, queue
// capacity and per-drain-cycle batch bound (<=0 selects the defaults:
// 1024 tasks, 64 per batch). Workers run until Close; with workers <= 0
// none start, and the queue is drained by callers through Take and Done.
func NewPool(workers, capacity, batchMax int, exec Executor) *Pool {
	if workers < 0 {
		workers = 0
	}
	if capacity <= 0 {
		capacity = 1024
	}
	if batchMax <= 0 {
		batchMax = 64
	}
	p := &Pool{exec: exec, capacity: capacity, batchMax: batchMax, workers: workers}
	p.cond = sync.NewCond(&p.mu)
	p.pending = make(map[string]bool)
	for k := range p.kinds {
		p.kinds[k].Kind = Kind(k).String()
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Push enqueues a task. It never blocks: a duplicate pending key is
// counted and dropped (the queued twin does the same work), and a full
// queue drops the task (counted; the workload regenerates profitable
// candidates). Reports whether the task was accepted.
func (p *Pool) Push(t *Task) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Enqueued counts every offer, so the accounting identity
	// Enqueued == Completed + Failed + Deduped + Dropped + Depth + InFlight
	// holds at all times: every offered task is settled exactly once.
	p.enqueued++
	if p.closed {
		p.dropped++
		return false
	}
	if t.Key != "" && p.pending[t.Key] {
		p.deduped++
		return false
	}
	if p.heap.Len() >= p.capacity {
		p.dropped++
		return false
	}
	p.seq++
	t.seq = p.seq
	t.enqueued = time.Now()
	heap.Push(&p.heap, t)
	if t.Key != "" {
		p.pending[t.Key] = true
	}
	p.cond.Broadcast()
	return true
}

// worker is the drain loop: pop a batch, apply it, account it.
func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for p.heap.Len() == 0 && !p.closed {
			p.cond.Wait()
		}
		if p.heap.Len() == 0 {
			p.mu.Unlock()
			return
		}
		batch := p.popLocked(p.batchMax)
		p.mu.Unlock()

		start := time.Now()
		p.exec(batch)
		p.Done(batch, time.Since(start))
	}
}

// Take pops every task pending now, in priority order, for the caller to
// apply on its own goroutine; the caller settles the batch with Done.
// Tasks pushed after Take returns — including ones the caller's apply
// re-enqueues — wait for the next Take. A pool with workers hands out
// nothing: its workers own the queue.
func (p *Pool) Take() []*Task {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.workers > 0 {
		return nil
	}
	return p.popLocked(p.heap.Len())
}

// Done settles a popped batch: each task counts as completed, or failed
// when its Err is set, with an equal share of the batch's wall time.
func (p *Pool) Done(batch []*Task, wall time.Duration) {
	if len(batch) == 0 {
		return
	}
	share := wall.Seconds() / float64(len(batch))
	p.mu.Lock()
	for _, t := range batch {
		ks := &p.kinds[t.Kind]
		ks.Completed++
		ks.WaitSeconds += t.popped.Sub(t.enqueued).Seconds()
		ks.RunSeconds += share
		if t.Err != nil {
			p.failed++
		} else {
			p.completed++
		}
	}
	p.inflight -= len(batch)
	p.cond.Broadcast() // wake Drain waiters and idle workers
	p.mu.Unlock()
}

// popLocked removes up to n tasks in priority order and marks them in
// flight.
func (p *Pool) popLocked(n int) []*Task {
	n = min(n, p.heap.Len())
	if n == 0 {
		return nil
	}
	batch := make([]*Task, 0, n)
	now := time.Now()
	for i := 0; i < n; i++ {
		t := heap.Pop(&p.heap).(*Task)
		if t.Key != "" {
			delete(p.pending, t.Key)
		}
		t.popped = now
		batch = append(batch, t)
	}
	p.inflight += n
	return batch
}

// Drain blocks until the queue is empty and every worker is idle — all
// maintenance enqueued before the call is applied (tasks the executors
// re-enqueue while draining, refresh retries, are drained too). Returns ctx.Err() if the context expires first. A pool
// without workers has nothing to wait for: what it holds waits for a
// Take.
func (p *Pool) Drain(ctx context.Context) error {
	if p.workers == 0 {
		return nil
	}
	done := make(chan struct{})
	var stop sync.Once
	if d := ctx.Done(); d != nil {
		go func() {
			select {
			case <-d:
				p.cond.Broadcast()
			case <-done:
			}
		}()
	}
	defer stop.Do(func() { close(done) })
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.heap.Len() > 0 || p.inflight > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		p.cond.Wait()
	}
	return nil
}

// Close stops the workers after the queue empties and waits for them to
// exit. Push after Close drops (counted). Idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// Stats returns a consistent counter snapshot (one lock acquisition).
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := Stats{
		Workers:   p.workers,
		Capacity:  p.capacity,
		Depth:     p.heap.Len(),
		InFlight:  p.inflight,
		Enqueued:  p.enqueued,
		Completed: p.completed,
		Failed:    p.failed,
		Deduped:   p.deduped,
		Dropped:   p.dropped,
	}
	for _, ks := range p.kinds {
		if ks.Completed > 0 {
			s.Kinds = append(s.Kinds, ks)
		}
	}
	sort.Slice(s.Kinds, func(i, j int) bool { return s.Kinds[i].Kind < s.Kinds[j].Kind })
	return s
}

// taskHeap orders tasks by band desc, then priority desc, then FIFO.
type taskHeap []*Task

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if h[i].Kind != h[j].Kind {
		return h[i].Kind > h[j].Kind
	}
	if h[i].Priority != h[j].Priority {
		return h[i].Priority > h[j].Priority
	}
	return h[i].seq < h[j].seq
}
func (h taskHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)   { *h = append(*h, x.(*Task)) }
func (h *taskHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}
