package engine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"deepsea/internal/faults"
	"deepsea/internal/interval"
	"deepsea/internal/leakcheck"
	"deepsea/internal/query"
)

// aggPlan is a multi-chunk plan that exercises chunk workers, sibling
// tasks and the merge path.
func aggPlan() query.Node {
	return &query.Aggregate{
		Child: &query.Join{
			Left:  query.NewScan("sales", salesSchema()),
			Right: query.NewScan("item", itemSchema()),
			LCol:  "ss_item_sk",
			RCol:  "i_item_sk",
		},
		GroupBy: []string{"i_category"},
		Aggs:    []query.AggSpec{{Func: query.Sum, Col: "ss_price", As: "total"}},
	}
}

// TestRunContextPreCancelled: an already-cancelled context returns
// immediately with context.Canceled, before any work starts — a view
// scan under it reads no stored file, so the injector sees no
// storage-read check.
func TestRunContextPreCancelled(t *testing.T) {
	leakcheck.Check(t)
	e := testEngine()
	ivs := []interval.Interval{interval.New(0, 49), interval.New(50, 99)}
	materializeJoinView(t, e, ivs)
	in := faults.New(faults.Config{Seed: 9, StorageRead: 1})
	e.SetFaults(in)
	vs := &query.ViewScan{
		ViewID:     "j",
		ViewSchema: joinPlan().Schema(),
		PartAttr:   "ss_item_sk",
		FragIDs:    []string{fragPath(ivs[0]), fragPath(ivs[1])},
		Reads:      ivs,
		FragIvs:    ivs,
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.RunContext(ctx, vs, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext on cancelled ctx = %v, want context.Canceled", err)
	}
	if n := in.Stats()[faults.StorageRead].Checks; n != 0 {
		t.Errorf("cancelled run made %d storage-read checks, want 0", n)
	}
}

// TestRunContextDeadline: an expired deadline surfaces as
// DeadlineExceeded.
func TestRunContextDeadline(t *testing.T) {
	leakcheck.Check(t)
	e := bigEngine(2 * chunkRows)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := e.RunContext(ctx, aggPlan(), nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunContext past deadline = %v, want DeadlineExceeded", err)
	}
}

// TestRunContextMidCancel cancels concurrently with a multi-chunk run.
// Whichever side wins the race, the run must return promptly, leak no
// goroutines, and the engine must stay usable afterward.
func TestRunContextMidCancel(t *testing.T) {
	leakcheck.Check(t)
	e := bigEngine(8 * chunkRows)
	e.Parallelism = 4
	ctx, cancel := context.WithCancel(context.Background())
	go cancel()
	res, err := e.RunContext(ctx, aggPlan(), nil)
	if err != nil {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-cancel run failed with non-context error: %v", err)
		}
	} else if res.Table == nil {
		t.Fatal("uncancelled run returned no table")
	}
	// The engine is not poisoned: a fresh run still works.
	if _, err := e.RunContext(context.Background(), aggPlan(), nil); err != nil {
		t.Fatalf("follow-up run after cancel: %v", err)
	}
}

// TestForEachTaskCancelStopsNewTasks: with a sequential budget the task
// order is deterministic — cancelling inside task 2 means exactly tasks
// 0..2 ran and abortErr reports context.Canceled.
func TestForEachTaskCancelStopsNewTasks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b := newBudget(1)
	b.ctx = ctx
	var ran []int
	forEachTask(b, 100, func(task int) {
		ran = append(ran, task)
		if task == 2 {
			cancel()
		}
	})
	if !errors.Is(b.abortErr(), context.Canceled) {
		t.Fatalf("abortErr = %v, want context.Canceled", b.abortErr())
	}
	if len(ran) != 3 {
		t.Errorf("ran %d tasks after cancel at task 2, want 3", len(ran))
	}
}

// TestForEachTaskPanicRecovered: a panicking task becomes the budget's
// error, the pool drains without crashing, and every worker token is
// returned (no deadlocked budget).
func TestForEachTaskPanicRecovered(t *testing.T) {
	leakcheck.Check(t)
	b := newBudget(4)
	forEachTask(b, 50, func(task int) {
		if task == 7 {
			panic("boom")
		}
	})
	err := b.abortErr()
	if err == nil || !strings.Contains(err.Error(), "worker panic") {
		t.Fatalf("abortErr after panic = %v", err)
	}
	tokens := 0
	for b.tryAcquire() {
		tokens++
	}
	if tokens != 3 {
		t.Errorf("free tokens after panic = %d, want 3 (a panicking worker kept one)", tokens)
	}
}

// TestRunContextWorkerPanicBecomesError: a panic raised inside the data
// path (here: a projection of a missing column, which panics in
// projectTable) surfaces from RunContext as an error, not a crash.
func TestRunContextWorkerPanicBecomesError(t *testing.T) {
	leakcheck.Check(t)
	e := bigEngine(2 * chunkRows)
	plan := &query.Project{Child: query.NewScan("sales", salesSchema()), Cols: []string{"no_such_col"}}
	_, err := e.RunContext(context.Background(), plan, nil)
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("panicking plan returned %v, want recovered panic error", err)
	}
	if _, err := e.RunContext(context.Background(), aggPlan(), nil); err != nil {
		t.Fatalf("follow-up run after panic: %v", err)
	}
}

// TestRunContextWorkerFault: a p=1 Worker injector fails every run with
// a fault error (recognizable via AsFault), never a crash or hang.
func TestRunContextWorkerFault(t *testing.T) {
	leakcheck.Check(t)
	e := bigEngine(4 * chunkRows)
	e.Parallelism = 4
	e.SetFaults(faults.New(faults.Config{Seed: 5, Worker: 1}))
	_, err := e.RunContext(context.Background(), aggPlan(), nil)
	f, ok := faults.AsFault(err)
	if !ok || f.Site != faults.Worker {
		t.Fatalf("run under p=1 worker faults = %v, want worker fault", err)
	}
	e.SetFaults(nil)
	if _, err := e.RunContext(context.Background(), aggPlan(), nil); err != nil {
		t.Fatalf("fault-free follow-up run: %v", err)
	}
}

// TestViewScanReadFaultNamesPath: an injected storage-read fault on a
// fragment surfaces with the failing path as the fault key — the handle
// the manager's quarantine logic needs.
func TestViewScanReadFaultNamesPath(t *testing.T) {
	leakcheck.Check(t)
	e := testEngine()
	ivs := []interval.Interval{interval.New(0, 49), interval.New(50, 99)}
	materializeJoinView(t, e, ivs)
	e.SetFaults(faults.New(faults.Config{Seed: 9, StorageRead: 1}))
	vs := &query.ViewScan{
		ViewID:     "j",
		ViewSchema: joinPlan().Schema(),
		PartAttr:   "ss_item_sk",
		FragIDs:    []string{fragPath(ivs[0]), fragPath(ivs[1])},
		Reads:      ivs,
		FragIvs:    ivs,
	}
	_, err := e.RunContext(context.Background(), vs, nil)
	f, ok := faults.AsFault(err)
	if !ok || f.Site != faults.StorageRead {
		t.Fatalf("view scan under p=1 read faults = %v, want storage-read fault", err)
	}
	if f.Key != fragPath(ivs[0]) && f.Key != fragPath(ivs[1]) {
		t.Errorf("fault key %q does not name a fragment path", f.Key)
	}
}
