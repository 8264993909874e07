package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"deepsea/internal/leakcheck"
)

// TestProcessQueryContextPreCancelled: a context cancelled before the
// call returns immediately, takes no locks, and the manager answers the
// next query normally.
func TestProcessQueryContextPreCancelled(t *testing.T) {
	leakcheck.Check(t)
	d := newTestSystem(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.ProcessQueryContext(ctx, q30(1000, 2999)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled ProcessQueryContext = %v, want context.Canceled", err)
	}
	if n := d.planAcq.Load(); n != 0 {
		t.Errorf("pre-cancelled query entered %d planning sections", n)
	}
	run(t, d, q30(1000, 2999))
}

// TestProcessQueryContextExpiredDeadline: a dead deadline surfaces as
// DeadlineExceeded, not as a fault or an internal error.
func TestProcessQueryContextExpiredDeadline(t *testing.T) {
	leakcheck.Check(t)
	d := newTestSystem(t, nil)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := d.ProcessQueryContext(ctx, q30(1000, 2999)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired-deadline ProcessQueryContext = %v, want DeadlineExceeded", err)
	}
}

// TestProcessQueryContextMidExecutionCancel cancels deterministically
// between planning and execution via the OnPlanned hook: the abort path
// must hold no manager lock, keep the pool consistent, and leave the
// manager fully usable — the same query then succeeds with the exact
// vanilla answer.
func TestProcessQueryContextMidExecutionCancel(t *testing.T) {
	leakcheck.Check(t)
	vanilla := newTestSystem(t, func(c *Config) { c.Materialize = false })
	want := run(t, vanilla, q30(1000, 2999)).Result.Fingerprint()

	d := newTestSystem(t, nil)
	run(t, d, q30(1000, 2999)) // populate the pool so the plan reads views

	ctx, cancel := context.WithCancel(context.Background())
	d.OnPlanned = func([]string) { cancel() }
	_, err := d.ProcessQueryContext(ctx, q30(1000, 2999))
	d.OnPlanned = nil
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-execution cancel = %v, want context.Canceled", err)
	}

	assertPoolInvariants(t, d, "after cancel")

	// The manager lock was released: the same query runs to completion
	// and the answer is still exact.
	rep := run(t, d, q30(1000, 2999))
	if rep.Result.Fingerprint() != want {
		t.Error("post-cancel query returned a wrong result")
	}
}

// TestProcessQueryContextCancelBeatsRetries: cancellation wins over the
// fault-retry loop — with every stored read failing and a huge retry
// budget, a cancelled context still returns context.Canceled promptly
// instead of spinning through retries.
func TestProcessQueryContextCancelBeatsRetries(t *testing.T) {
	leakcheck.Check(t)
	d := newTestSystem(t, nil)
	run(t, d, q30(1000, 2999)) // materialize something to read

	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	d.OnPlanned = func([]string) {
		calls++
		cancel()
	}
	_, err := d.ProcessQueryContext(ctx, q30(1000, 2999))
	d.OnPlanned = nil
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel during retry loop = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Errorf("retry loop ran %d attempts after cancel, want 1", calls)
	}
}
