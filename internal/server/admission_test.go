package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deepsea/internal/leakcheck"
)

// acquire is enter then wait, as Server.guarded runs them around the
// body read: nil (the caller must release), ErrShed (every place taken
// or queue timeout), or ctx.Err().
func (l *limiter) acquire(ctx context.Context) error {
	if err := l.enter(); err != nil {
		return err
	}
	return l.wait(ctx)
}

// waitQueueDepth polls until the limiter's queue reaches depth n.
func waitQueueDepth(t *testing.T, l *limiter, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, _, depth := l.snapshot()
		if depth >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue depth never reached %d (at %d)", n, depth)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLimiterSlotsGoToDecodedRequests: entering takes a place, not a
// slot, so a request still reading its body holds no slot and a request
// that leaves without running gives its place back.
func TestLimiterSlotsGoToDecodedRequests(t *testing.T) {
	l := newLimiter(1, 1, 0)
	if err := l.enter(); err != nil { // a request still reading its body
		t.Fatal(err)
	}
	if err := l.acquire(context.Background()); err != nil {
		t.Fatalf("a decoded request behind a reading one: %v, want the slot", err)
	}
	if err := l.enter(); !errors.Is(err, ErrShed) {
		t.Fatalf("enter with every place taken: %v, want ErrShed", err)
	}
	l.leave() // the reader's body did not decode
	if err := l.enter(); err != nil {
		t.Fatalf("enter after a leave: %v", err)
	}
	l.leave()
	l.release()
	stats, inflight, depth := l.snapshot()
	if inflight != 0 || depth != 0 || l.places != 0 {
		t.Errorf("limiter not drained: %d in flight, %d queued, %d places", inflight, depth, l.places)
	}
	if stats.Admitted != 1 || stats.ShedQueueFull != 1 {
		t.Errorf("stats = %+v, want 1 admitted / 1 shed", stats)
	}
}

func TestLimiterFIFO(t *testing.T) {
	leakcheck.Check(t)
	l := newLimiter(1, 8, 0)
	if err := l.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Enqueue three waiters in a known order (each is in the queue before
	// the next starts), record the order they are admitted in.
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := l.acquire(context.Background()); err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			l.release()
		}(i)
		waitQueueDepth(t, l, i+1)
	}
	l.release() // hands the slot to waiter 0, then 1, then 2
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("admission order %v, want [0 1 2]", order)
		}
	}
	stats, inflight, depth := l.snapshot()
	if inflight != 0 || depth != 0 {
		t.Errorf("limiter not drained: %d in flight, %d queued", inflight, depth)
	}
	if stats.Admitted != 4 || stats.Queued != 3 {
		t.Errorf("stats = %+v, want 4 admitted / 3 queued", stats)
	}
}

func TestLimiterShedsWhenQueueFull(t *testing.T) {
	leakcheck.Check(t)
	l := newLimiter(1, 1, 0)
	if err := l.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		err := l.acquire(context.Background())
		if err == nil {
			l.release()
		}
		done <- err
	}()
	waitQueueDepth(t, l, 1)

	// Slot busy, queue full: immediate shed.
	if err := l.acquire(context.Background()); !errors.Is(err, ErrShed) {
		t.Fatalf("got %v, want ErrShed", err)
	}
	stats, _, _ := l.snapshot()
	if stats.ShedQueueFull != 1 {
		t.Errorf("ShedQueueFull = %d, want 1", stats.ShedQueueFull)
	}
	l.release()
	if err := <-done; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
}

func TestLimiterQueueTimeout(t *testing.T) {
	leakcheck.Check(t)
	l := newLimiter(1, 8, 10*time.Millisecond)
	if err := l.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := l.acquire(context.Background()); !errors.Is(err, ErrShed) {
		t.Fatalf("got %v, want ErrShed after queue timeout", err)
	}
	stats, _, depth := l.snapshot()
	if stats.ShedTimeout != 1 {
		t.Errorf("ShedTimeout = %d, want 1", stats.ShedTimeout)
	}
	if depth != 0 {
		t.Errorf("abandoned waiter left in queue (depth %d)", depth)
	}
	// The held slot is unaffected; releasing frees it for a fresh acquire.
	l.release()
	if err := l.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	l.release()
}

// TestLimiterReleaseSkipsAbandonedWaiter pins the handover invariant
// white-box: release must pass over a waiter that abandoned (timed out
// or canceled but not yet dequeued — the window between its select
// firing and it retaking the mutex) and admit the next live one,
// keeping the slot accounted to exactly one owner.
func TestLimiterReleaseSkipsAbandonedWaiter(t *testing.T) {
	l := newLimiter(1, 8, 0)
	l.places, l.inflight = 2, 1
	abandoned := &waiter{ready: make(chan struct{}), abandoned: true}
	live := &waiter{ready: make(chan struct{})}
	l.queue = []*waiter{abandoned, live}

	l.release()

	if !live.admitted {
		t.Error("live waiter behind an abandoned one was not admitted")
	}
	select {
	case <-live.ready:
	default:
		t.Error("live waiter's ready channel not closed")
	}
	if abandoned.admitted {
		t.Error("abandoned waiter was granted the slot")
	}
	select {
	case <-abandoned.ready:
		t.Error("abandoned waiter's ready channel was closed")
	default:
	}
	// The slot moved from releaser to the live waiter: still one
	// in-flight, queue drained.
	if _, inflight, depth := l.snapshot(); inflight != 1 || depth != 0 {
		t.Errorf("inflight=%d depth=%d, want 1 and 0", inflight, depth)
	}

	// With only abandoned waiters queued, release frees the slot.
	l.queue = []*waiter{{ready: make(chan struct{}), abandoned: true}}
	l.release()
	if _, inflight, depth := l.snapshot(); inflight != 0 || depth != 0 || l.places != 0 {
		t.Errorf("after abandoned-only release: inflight=%d depth=%d places=%d, want 0, 0 and 0", inflight, depth, l.places)
	}
}

// TestLimiterFIFOPastAbandoned checks end-to-end that a canceled waiter
// does not absorb the handed-over slot nor break FIFO for those behind
// it.
func TestLimiterFIFOPastAbandoned(t *testing.T) {
	leakcheck.Check(t)
	l := newLimiter(1, 8, 0)
	if err := l.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	bDone := make(chan error, 1)
	go func() { bDone <- l.acquire(ctx) }()
	waitQueueDepth(t, l, 1)
	cDone := make(chan error, 1)
	go func() {
		err := l.acquire(context.Background())
		cDone <- err
	}()
	waitQueueDepth(t, l, 2)

	cancel()
	if err := <-bDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter got %v", err)
	}
	// C is still queued; releasing A's slot must admit C, not leak the
	// slot into B's corpse.
	l.release()
	select {
	case err := <-cDone:
		if err != nil {
			t.Fatalf("waiter behind the canceled one: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter behind the canceled one never admitted: slot leaked")
	}
	l.release()
	if _, inflight, depth := l.snapshot(); inflight != 0 || depth != 0 {
		t.Errorf("limiter not drained: inflight=%d depth=%d", inflight, depth)
	}
}

// TestLimiterAbandonHandoverRace is the -race stress for the
// abandon/handover window: many waiters with deadlines short enough
// that releases routinely race their timeouts. Whatever interleaving
// the scheduler picks, a slot must be neither leaked (concurrency
// drops below the limit forever) nor double-granted (concurrency
// exceeds the limit), and the limiter must drain to zero.
func TestLimiterAbandonHandoverRace(t *testing.T) {
	leakcheck.Check(t)
	const (
		slots   = 4
		workers = 200
	)
	l := newLimiter(slots, workers, 0)
	var cur, peak, admitted atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// A spread of tiny deadlines: some requests are admitted
			// immediately, some after queueing, many abandon right as a
			// release considers them.
			ctx, cancel := context.WithTimeout(context.Background(),
				time.Duration(i%5)*200*time.Microsecond)
			defer cancel()
			if err := l.acquire(ctx); err != nil {
				return
			}
			admitted.Add(1)
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(100 * time.Microsecond)
			cur.Add(-1)
			l.release()
		}(i)
	}
	wg.Wait()

	if p := peak.Load(); p > slots {
		t.Errorf("slot double-granted: observed %d concurrent holders, limit %d", p, slots)
	}
	stats, inflight, depth := l.snapshot()
	if inflight != 0 || depth != 0 {
		t.Errorf("slot leaked: inflight=%d depth=%d after full drain", inflight, depth)
	}
	if int64(stats.Admitted) != admitted.Load() {
		t.Errorf("stats.Admitted = %d, %d goroutines actually admitted", stats.Admitted, admitted.Load())
	}
	// Every worker is accounted exactly once across the outcomes.
	total := stats.Admitted + stats.ShedQueueFull + stats.Canceled + stats.ShedTimeout
	if total != workers {
		t.Errorf("outcomes sum to %d (%+v), want %d", total, stats, workers)
	}
}

func TestLimiterContextCancel(t *testing.T) {
	leakcheck.Check(t)
	l := newLimiter(1, 8, 0)
	if err := l.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- l.acquire(ctx) }()
	waitQueueDepth(t, l, 1)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	stats, _, depth := l.snapshot()
	if stats.Canceled != 1 || depth != 0 {
		t.Errorf("stats = %+v, depth = %d; want 1 canceled, empty queue", stats, depth)
	}
	l.release()
}
