package maintain

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestOrdering checks band-then-priority-then-FIFO pop order.
func TestOrdering(t *testing.T) {
	var mu sync.Mutex
	var got []string
	// Stall the single worker so all pushes land before any pop.
	gate := make(chan struct{})
	p := NewPool(1, 0, 1, func(batch []*Task) {
		mu.Lock()
		for _, task := range batch {
			got = append(got, task.Payload.(string))
		}
		mu.Unlock()
		if batch[0].Payload == "gate" {
			<-gate
		}
	})
	p.Push(&Task{Kind: KindSweep, Payload: "gate"})
	// Wait until the gate task is in flight, then load the queue.
	waitFor(t, func() bool { return p.Stats().InFlight == 1 })

	p.Push(&Task{Kind: KindMerge, Priority: 5, Payload: "merge"})
	p.Push(&Task{Kind: KindMaterialize, Priority: 1, Payload: "mat-lo"})
	p.Push(&Task{Kind: KindMaterialize, Priority: 9, Payload: "mat-hi"})
	p.Push(&Task{Kind: KindSplit, Priority: 3, Payload: "split-a"})
	p.Push(&Task{Kind: KindSplit, Priority: 3, Payload: "split-b"})
	p.Push(&Task{Kind: KindRefresh, Payload: "refresh"})
	close(gate)

	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	p.Close()

	want := []string{"gate", "refresh", "mat-hi", "mat-lo", "split-a", "split-b", "merge"}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != len(want) {
		t.Fatalf("applied %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("applied %v, want %v", got, want)
		}
	}
}

// TestDedup checks that a pending key is enqueued once and counted.
func TestDedup(t *testing.T) {
	block := make(chan struct{})
	var applied atomic.Int64
	p := NewPool(1, 0, 64, func(batch []*Task) {
		<-block
		applied.Add(int64(len(batch)))
	})
	defer p.Close()
	p.Push(&Task{Kind: KindSweep, Payload: "hold"}) // occupies the worker
	waitFor(t, func() bool { return p.Stats().InFlight == 1 })

	if !p.Push(&Task{Key: "refresh:v1", Kind: KindRefresh}) {
		t.Fatal("first keyed push rejected")
	}
	if p.Push(&Task{Key: "refresh:v1", Kind: KindRefresh}) {
		t.Fatal("duplicate pending key accepted")
	}
	if !p.Push(&Task{Key: "refresh:v2", Kind: KindRefresh}) {
		t.Fatal("distinct key rejected")
	}
	s := p.Stats()
	if s.Deduped != 1 {
		t.Fatalf("deduped = %d, want 1", s.Deduped)
	}
	close(block)
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The identity: everything offered is accounted for.
	s = p.Stats()
	if s.Enqueued != s.Completed+s.Failed+s.Deduped+s.Dropped || s.Depth != 0 || s.InFlight != 0 {
		t.Fatalf("lost tasks: %+v", s)
	}
	if applied.Load() != 3 {
		t.Fatalf("applied %d tasks, want 3", applied.Load())
	}
}

// TestBoundedDrop checks that a full queue drops instead of blocking.
func TestBoundedDrop(t *testing.T) {
	block := make(chan struct{})
	p := NewPool(1, 2, 64, func(batch []*Task) { <-block })
	defer p.Close()
	p.Push(&Task{Kind: KindSweep}) // in flight
	waitFor(t, func() bool { return p.Stats().InFlight == 1 })
	p.Push(&Task{Kind: KindSweep})
	p.Push(&Task{Kind: KindSweep})
	if p.Push(&Task{Kind: KindSweep}) {
		t.Fatal("push over capacity accepted")
	}
	if s := p.Stats(); s.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", s.Dropped)
	}
	close(block)
}

// TestFailedAccounting checks executor-set errors count as failed.
func TestFailedAccounting(t *testing.T) {
	p := NewPool(2, 0, 64, func(batch []*Task) {
		for _, task := range batch {
			if task.Payload == "bad" {
				task.Err = errors.New("boom")
			}
		}
	})
	p.Push(&Task{Kind: KindSplit, Payload: "ok"})
	p.Push(&Task{Kind: KindSplit, Payload: "bad"})
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	p.Close()
	s := p.Stats()
	if s.Failed != 1 || s.Completed != 1 {
		t.Fatalf("completed=%d failed=%d, want 1/1", s.Completed, s.Failed)
	}
	var split KindStats
	for _, ks := range s.Kinds {
		if ks.Kind == "split" {
			split = ks
		}
	}
	if split.Completed != 2 {
		t.Fatalf("split kind completed = %d, want 2", split.Completed)
	}
}

// TestDrainContext checks Drain honours an expiring context.
func TestDrainContext(t *testing.T) {
	block := make(chan struct{})
	p := NewPool(1, 0, 64, func(batch []*Task) { <-block })
	defer p.Close() // LIFO: runs after the worker is unblocked
	defer close(block)
	p.Push(&Task{Kind: KindSweep})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := p.Drain(ctx); err == nil {
		t.Fatal("drain returned nil with a stuck worker")
	}
}

// TestReenqueueDuringDrain checks that tasks pushed by the executor
// (refresh retries) are drained too.
func TestReenqueueDuringDrain(t *testing.T) {
	var p *Pool
	var retried atomic.Bool
	p = NewPool(1, 0, 64, func(batch []*Task) {
		for _, task := range batch {
			if task.Payload == "retry-once" && retried.CompareAndSwap(false, true) {
				p.Push(&Task{Kind: KindRefresh, Payload: "retried"})
			}
		}
	})
	defer p.Close()
	p.Push(&Task{Kind: KindRefresh, Payload: "retry-once"})
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Completed != 2 {
		t.Fatalf("completed = %d, want 2 (retry drained)", s.Completed)
	}
}

// TestTakeWithoutWorkers: a pool with no workers is drained by its
// callers. Take hands out what is pending at the call, in pop order; the
// accounting identity holds before, across and after it; a key popped
// by Take no longer blocks a new push, and that push waits for the next
// Take; Drain and Close return with tasks still queued.
func TestTakeWithoutWorkers(t *testing.T) {
	p := NewPool(0, 0, 0, nil)
	identity := func(when string) Stats {
		t.Helper()
		s := p.Stats()
		if s.Enqueued != s.Completed+s.Failed+s.Deduped+s.Dropped+uint64(s.Depth+s.InFlight) {
			t.Fatalf("%s: accounting identity broken: %+v", when, s)
		}
		return s
	}
	p.Push(&Task{Key: "refresh:a", Kind: KindRefresh, Payload: "a"})
	p.Push(&Task{Key: "refresh:a", Kind: KindRefresh, Payload: "a-dup"})
	p.Push(&Task{Kind: KindSweep, Payload: "sweep"})
	p.Push(&Task{Key: "refresh:b", Kind: KindRefresh, Payload: "b"})
	if s := identity("queued"); s.Depth != 3 || s.Deduped != 1 || s.Workers != 0 {
		t.Fatalf("queued: %+v", s)
	}

	batch := p.Take()
	var got []string
	for _, task := range batch {
		got = append(got, task.Payload.(string))
	}
	if want := []string{"a", "b", "sweep"}; len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("Take = %v, want %v", got, want)
	}
	if s := identity("taken"); s.Depth != 0 || s.InFlight != 3 {
		t.Fatalf("taken: %+v", s)
	}
	// What the apply re-enqueues is not part of this batch.
	if !p.Push(&Task{Key: "refresh:a", Kind: KindRefresh, Payload: "a-retry"}) {
		t.Fatal("key of a popped task still blocks a push")
	}
	batch[1].Err = errors.New("boom")
	p.Done(batch, time.Millisecond)
	if s := identity("settled"); s.Completed != 2 || s.Failed != 1 || s.Depth != 1 || s.InFlight != 0 {
		t.Fatalf("settled: %+v", s)
	}

	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if next := p.Take(); len(next) != 1 || next[0].Payload != "a-retry" {
		t.Fatalf("second Take = %v, want the retry", next)
	} else {
		p.Done(next, 0)
	}
	if len(p.Take()) != 0 {
		t.Fatal("Take on an empty queue returned tasks")
	}
	p.Push(&Task{Kind: KindSweep, Payload: "left behind"})
	p.Close()
	if p.Push(&Task{Kind: KindSweep}) {
		t.Fatal("push after Close accepted")
	}
	identity("closed")

	// With workers the queue is theirs.
	block := make(chan struct{})
	w := NewPool(1, 0, 1, func([]*Task) { <-block })
	defer w.Close()
	defer close(block)
	w.Push(&Task{Kind: KindSweep})
	w.Push(&Task{Kind: KindSweep})
	if len(w.Take()) != 0 {
		t.Fatal("Take stole from a pool that has workers")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}
