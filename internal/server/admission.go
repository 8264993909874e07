package server

import (
	"context"
	"errors"
	"sync"
	"time"
)

// ErrShed reports that admission control refused a request: every
// execution slot and queue position is taken, or the request waited out
// its queue timeout. HTTP handlers translate it to 429 with
// a Retry-After hint.
var ErrShed = errors.New("server: overloaded, request shed")

// AdmissionStats counts limiter traffic. Admitted is requests granted a
// slot (immediately or after queueing); ShedQueueFull (every place
// taken, so the body was not read) and ShedTimeout are the two
// load-shedding reasons; Canceled is requests whose context ended while
// they queued.
type AdmissionStats struct {
	Admitted      uint64 `json:"admitted"`
	Queued        uint64 `json:"queued"`
	ShedQueueFull uint64 `json:"shed_queue_full"`
	ShedTimeout   uint64 `json:"shed_timeout"`
	Canceled      uint64 `json:"canceled"`
}

// waiter is one queued request. admitted and abandoned are guarded by
// the limiter's mutex; ready is closed (once, under the mutex) when the
// waiter is granted a slot.
type waiter struct {
	ready     chan struct{}
	admitted  bool
	abandoned bool
}

// limiter is the admission controller: a bounded count of in-flight
// executions plus a bounded FIFO wait queue. Channel semaphores grant
// slots in whatever order the scheduler wakes receivers; an explicit
// waiter list keeps admission strictly first-come-first-served, so a
// burst cannot starve an early arrival.
//
// A request takes a place (enter) before its body is read and a slot
// (wait) only once the body is decoded, so at most maxInFlight +
// maxQueue requests are inside — reading, queued or executing — and a
// slow body never holds a slot. The queue stays within maxQueue: it is
// non-empty only while every slot is held.
type limiter struct {
	maxInFlight int
	maxQueue    int
	timeout     time.Duration // 0 = wait as long as the context allows

	mu       sync.Mutex
	places   int // requests between enter and their leave or release
	inflight int
	queue    []*waiter
	stats    AdmissionStats
}

func newLimiter(maxInFlight, maxQueue int, timeout time.Duration) *limiter {
	return &limiter{maxInFlight: maxInFlight, maxQueue: maxQueue, timeout: timeout}
}

// enter takes a place for a request without blocking, or returns
// ErrShed when maxInFlight + maxQueue requests already hold one. The
// place is given up by leave, by a failed wait, or by release.
func (l *limiter) enter() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.places >= l.maxInFlight+l.maxQueue {
		l.stats.ShedQueueFull++
		return ErrShed
	}
	l.places++
	return nil
}

// wait blocks until a request holding a place holds an execution slot.
// It returns nil (the caller must release), ErrShed (queue timeout) or
// ctx.Err(); on an error the place is given up. FIFO: slots freed by
// release go to the oldest live waiter.
func (l *limiter) wait(ctx context.Context) error {
	l.mu.Lock()
	if l.inflight < l.maxInFlight {
		l.inflight++
		l.stats.Admitted++
		l.mu.Unlock()
		return nil
	}
	w := &waiter{ready: make(chan struct{})}
	l.queue = append(l.queue, w)
	l.stats.Queued++
	l.mu.Unlock()

	var timeoutC <-chan time.Time
	if l.timeout > 0 {
		t := time.NewTimer(l.timeout)
		defer t.Stop()
		timeoutC = t.C
	}
	select {
	case <-w.ready:
		return nil
	case <-timeoutC:
	case <-ctx.Done():
	}

	// Timed out or canceled — unless release admitted us first, in which
	// case we own a slot and must keep it (the release already handed it
	// over and will not offer it again).
	l.mu.Lock()
	defer l.mu.Unlock()
	if w.admitted {
		return nil
	}
	w.abandoned = true
	for i, q := range l.queue {
		if q == w {
			l.queue = append(l.queue[:i], l.queue[i+1:]...)
			break
		}
	}
	l.places--
	if err := ctx.Err(); err != nil {
		l.stats.Canceled++
		return err
	}
	l.stats.ShedTimeout++
	return ErrShed
}

// leave gives up the place of a request that will not run: its body did
// not decode, or it failed validation.
func (l *limiter) leave() {
	l.mu.Lock()
	l.places--
	l.mu.Unlock()
}

// release returns a slot and its request's place: the slot goes to the
// oldest live waiter, or back to the free pool when no one queues.
func (l *limiter) release() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.places--
	for len(l.queue) > 0 {
		w := l.queue[0]
		l.queue = l.queue[1:]
		if w.abandoned {
			continue
		}
		w.admitted = true
		close(w.ready)
		l.stats.Admitted++
		return
	}
	l.inflight--
}

// snapshot returns the stats plus the instantaneous occupancy.
func (l *limiter) snapshot() (AdmissionStats, int, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats, l.inflight, len(l.queue)
}
