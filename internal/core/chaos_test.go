package core

import (
	"context"
	"math/rand"
	"testing"

	"deepsea/internal/faults"
	"deepsea/internal/leakcheck"
)

// isStored reports whether the engine stores a file at path.
func isStored(d *DeepSea, path string) bool {
	for _, f := range d.Eng.StoredFiles() {
		if f.Path == path {
			return true
		}
	}
	return false
}

// assertPoolInvariants checks the structural invariants that must
// survive any amount of fault churn: partitions valid, every pool path
// present in the store, store and pool agreeing on total size.
func assertPoolInvariants(t *testing.T, d *DeepSea, when string) {
	t.Helper()
	for _, pv := range d.Pool.Views() {
		for _, part := range pv.Parts {
			if err := part.Validate(); err != nil {
				t.Fatalf("%s: %v", when, err)
			}
			for _, f := range part.Fragments() {
				if !isStored(d, f.Path) {
					t.Fatalf("%s: pool references missing file %s", when, f.Path)
				}
			}
		}
	}
	if fs, pool := d.Eng.StoredBytes(), d.Pool.TotalSize(); fs != pool {
		t.Fatalf("%s: FS %d != pool %d", when, fs, pool)
	}
}

// poolReferences reports whether any pool view or fragment points at
// the given storage path.
func poolReferences(d *DeepSea, path string) bool {
	for _, pv := range d.Pool.Views() {
		if pv.Path == path {
			return true
		}
		for _, part := range pv.Parts {
			for _, f := range part.Fragments() {
				if f.Path == path {
					return true
				}
			}
		}
	}
	return false
}

// assertQuarantineGone checks that quarantined paths are truly gone:
// not in the FS, and not referenced by any pool view or fragment. Only
// valid when re-materialization cannot recreate the path.
func assertQuarantineGone(t *testing.T, d *DeepSea, paths []string) {
	t.Helper()
	for _, p := range paths {
		if isStored(d, p) {
			t.Fatalf("quarantined path %s still in FS", p)
		}
		if poolReferences(d, p) {
			t.Fatalf("quarantined path %s still referenced by the pool", p)
		}
	}
}

// assertQuarantineConsistent is the steady-state form: a quarantined
// path may legitimately reappear when a later maintenance phase
// re-materializes the same view from base data (self-healing), but it
// must then be a pool-referenced fresh copy — never an orphaned file,
// and never a pool reference to a missing file.
func assertQuarantineConsistent(t *testing.T, d *DeepSea, paths []string) {
	t.Helper()
	for _, p := range paths {
		inFS, inPool := isStored(d, p), poolReferences(d, p)
		if inFS != inPool {
			t.Fatalf("quarantined path %s inconsistent: inFS=%v inPool=%v", p, inFS, inPool)
		}
	}
}

// TestChaosStress is the headline failure-model proof: a seeded mix of
// storage-read, storage-write, worker and materialization faults over a
// randomized workload. Every query that succeeds must be byte-identical
// (by order-independent fingerprint) to the fault-free run, failed
// materializations never fail queries, quarantined files vanish from
// pool and FS, structural invariants hold after every query, and no
// goroutines leak.
func TestChaosStress(t *testing.T) {
	leakcheck.Check(t)

	type qr struct{ lo, hi int64 }
	rng := rand.New(rand.NewSource(99))
	var queries []qr
	for i := 0; i < 30; i++ {
		width := rng.Int63n(2000) + 100
		lo := rng.Int63n(testDomHi - width)
		queries = append(queries, qr{lo, lo + width})
	}

	vanilla := newTestSystem(t, func(c *Config) { c.Materialize = false })
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = run(t, vanilla, q30(q.lo, q.hi)).Result.Fingerprint()
	}

	d := newTestSystem(t, func(c *Config) {
		// Fixed parallelism: the worker-site check count depends on the
		// join bucket count, which follows Parallelism — pinning it keeps
		// the fault schedule machine-independent.
		c.Parallelism = 4
		c.CacheBytes = 64 << 20
		c.FaultRetries = 8
		c.Faults = &faults.Config{
			Seed:              4242,
			StorageRead:       0.05,
			StorageWrite:      0.05,
			Worker:            0.01,
			Materialize:       0.15,
			PermanentFraction: 0.3,
		}
	})

	succeeded, failed, matFailures := 0, 0, 0
	for i, q := range queries {
		rep, err := d.ProcessQueryContext(context.Background(), q30(q.lo, q.hi))
		if err != nil {
			// Permissible: retries exhausted or a permanent worker fault.
			// The system must still be structurally sound.
			if _, ok := faults.AsFault(err); !ok {
				t.Fatalf("query %d failed with a non-fault error: %v", i, err)
			}
			failed++
			assertPoolInvariants(t, d, "after failed query")
			continue
		}
		succeeded++
		matFailures += len(rep.MatFailed)
		if rep.Result.Fingerprint() != want[i] {
			t.Fatalf("query %d: successful result differs from the fault-free run", i)
		}
		assertQuarantineConsistent(t, d, rep.Quarantined)
		assertPoolInvariants(t, d, "after successful query")
	}

	st := d.Faults().Stats()
	if d.Faults().TotalInjected() == 0 {
		t.Fatal("chaos run injected no faults; the test proved nothing")
	}
	if st[faults.Materialize].Injected > 0 && succeeded == 0 {
		t.Fatal("no query survived; fault rates are too hostile to prove degradation")
	}
	t.Logf("chaos: %d ok / %d failed, %d materialization failures swallowed, injected: %+v",
		succeeded, failed, matFailures, st)
}

// TestFragmentReadFaultQuarantinesAndDegrades forces every stored read
// to fail: the second query (which rewrites to the freshly materialized
// view) must quarantine the unreadable files one by one, re-plan, and
// still return the exact base-table answer.
func TestFragmentReadFaultQuarantinesAndDegrades(t *testing.T) {
	leakcheck.Check(t)
	vanilla := newTestSystem(t, func(c *Config) { c.Materialize = false })
	want := run(t, vanilla, q30(1000, 2999)).Result.Fingerprint()

	d := newTestSystem(t, func(c *Config) {
		c.FaultRetries = 64
		c.Faults = &faults.Config{Seed: 1, StorageRead: 1}
	})

	// Query 1: empty pool, pure base plan — no stored reads, no faults.
	rep1 := run(t, d, q30(1000, 2999))
	if rep1.Result.Fingerprint() != want {
		t.Fatal("query 1 wrong")
	}
	if len(rep1.MaterializedViews)+len(rep1.MaterializedFrags) == 0 {
		t.Fatal("query 1 materialized nothing; test setup broken")
	}

	// Blacklist every pool view so the successful attempt's maintenance
	// phase cannot re-materialize the quarantined paths — that isolates
	// the removal itself for the strong absence assertion below.
	for _, pv := range d.Pool.Views() {
		d.backoff.noteFailure(pv.ID, true)
	}

	// Query 2: the rewriting reads stored files, every read fails. The
	// manager must quarantine its way back to a base-table plan.
	rep2, err := d.ProcessQueryContext(context.Background(), q30(1000, 2999))
	if err != nil {
		t.Fatalf("query 2 did not degrade: %v", err)
	}
	if rep2.Result.Fingerprint() != want {
		t.Fatal("degraded answer differs from the base-table answer")
	}
	if len(rep2.Quarantined) == 0 || rep2.Retries == 0 {
		t.Fatalf("expected quarantines and retries, got %+v / %d retries", rep2.Quarantined, rep2.Retries)
	}
	assertQuarantineGone(t, d, rep2.Quarantined)
	assertPoolInvariants(t, d, "after degradation")
}

// TestChaosBackgroundQuarantineLeavesRangeToQueries is the worker-driver
// form of the test above, without the blacklist: with every stored read
// failing, a rewriting query quarantines the fragments it touches and
// still answers from base tables, and draining the workers restores
// nothing — quarantine is a removal like any eviction, and a lost range
// comes back only when a later query's own maintenance materializes it
// again. Query 2 reads a sub-range of query 1's, so its own maintenance
// stores different intervals and cannot re-create a quarantined path.
func TestChaosBackgroundQuarantineLeavesRangeToQueries(t *testing.T) {
	leakcheck.Check(t)
	vanilla := newTestSystem(t, func(c *Config) { c.Materialize = false })
	want1 := run(t, vanilla, q30(1000, 2999)).Result.Fingerprint()
	want2 := run(t, vanilla, q30(1200, 2199)).Result.Fingerprint()

	d := newTestSystem(t, func(c *Config) {
		c.MaintWorkers = 2
		c.FaultRetries = 64
		c.Faults = &faults.Config{Seed: 1, StorageRead: 1}
	})
	defer d.CloseMaintenance()

	// Query 1: empty pool, no stored reads. Drain so its materializations
	// land before query 2 tries to use them.
	if run(t, d, q30(1000, 2999)).Result.Fingerprint() != want1 {
		t.Fatal("query 1 wrong")
	}
	if err := d.DrainMaintenance(context.Background()); err != nil {
		t.Fatal(err)
	}
	if d.Pool.TotalSize() == 0 {
		t.Fatal("drain left the pool empty; test setup broken")
	}

	// Query 2: every stored read faults; the manager quarantines its way
	// back to a base plan.
	rep2, err := d.ProcessQueryContext(context.Background(), q30(1200, 2199))
	if err != nil {
		t.Fatalf("query 2 did not degrade: %v", err)
	}
	if rep2.Result.Fingerprint() != want2 {
		t.Fatal("degraded answer differs from the base-table answer")
	}
	if len(rep2.Quarantined) == 0 {
		t.Fatal("no quarantines; test setup broken")
	}

	if err := d.DrainMaintenance(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertQuarantineGone(t, d, rep2.Quarantined)
	assertPoolInvariants(t, d, "after drain")
}

// TestQuarantineLogIsBounded: with every stored read failing and
// maintenance re-materializing what was lost, a repeated query keeps
// quarantining. Health must keep only the quarLogCap most recent paths
// while QuarantinedTotal counts them all.
func TestQuarantineLogIsBounded(t *testing.T) {
	d := newTestSystem(t, func(c *Config) {
		c.FaultRetries = 64
		c.Faults = &faults.Config{Seed: 1, StorageRead: 1}
	})
	var all []string
	for i := 0; len(all) <= quarLogCap+10; i++ {
		if i == 4*quarLogCap {
			t.Fatalf("only %d quarantines after %d queries", len(all), i)
		}
		all = append(all, run(t, d, q30(1000, 2999)).Quarantined...)
	}
	h := d.Health()
	if h.QuarantinedTotal != uint64(len(all)) {
		t.Errorf("QuarantinedTotal = %d, want %d", h.QuarantinedTotal, len(all))
	}
	if len(h.Quarantined) != quarLogCap {
		t.Fatalf("Health lists %d quarantined paths, want the cap %d", len(h.Quarantined), quarLogCap)
	}
	for i, p := range all[len(all)-quarLogCap:] {
		if h.Quarantined[i] != p {
			t.Fatalf("Health.Quarantined[%d] = %s, want %s (the most recent paths, oldest first)", i, h.Quarantined[i], p)
		}
	}
}

// TestMaterializeFaultsNeverFailQueries: with every materialization
// attempt failing (transiently), queries keep succeeding with correct
// results, nothing lands in the pool, and after matMaxFailures failed
// attempts a view is blacklisted — later queries stop attempting it.
func TestMaterializeFaultsNeverFailQueries(t *testing.T) {
	leakcheck.Check(t)
	vanilla := newTestSystem(t, func(c *Config) { c.Materialize = false })
	d := newTestSystem(t, func(c *Config) {
		c.Faults = &faults.Config{Seed: 2, Materialize: 1}
	})

	var blacklisted string
	for i := 0; i < matMaxFailures+2; i++ {
		q := q30(1000, 2999)
		want := run(t, vanilla, q).Result.Fingerprint()
		rep := run(t, d, q)
		if rep.Result.Fingerprint() != want {
			t.Fatalf("query %d wrong under materialization faults", i)
		}
		for _, id := range rep.MatFailed {
			if !d.backoff.allowed(id) {
				blacklisted = id
			}
		}
		if i >= matMaxFailures && len(rep.MatFailed) != 0 {
			t.Fatalf("query %d still attempts blacklisted views: %v", i, rep.MatFailed)
		}
	}
	if blacklisted == "" {
		t.Fatal("no view reached the blacklist after repeated failures")
	}
	if len(d.Eng.StoredFiles()) != 0 || d.Pool.TotalSize() != 0 {
		t.Errorf("failed materializations left files behind: %d files, pool %d bytes",
			len(d.Eng.StoredFiles()), d.Pool.TotalSize())
	}
}

// TestPermanentMaterializeFaultBlacklistsImmediately: a permanent fault
// on the first attempt blacklists the view without burning the
// remaining retry budget.
func TestPermanentMaterializeFaultBlacklistsImmediately(t *testing.T) {
	d := newTestSystem(t, func(c *Config) {
		c.Faults = &faults.Config{Seed: 3, Materialize: 1, PermanentFraction: 1}
	})
	rep := run(t, d, q30(1000, 2999))
	if len(rep.MatFailed) == 0 {
		t.Fatal("no materialization attempt failed; test setup broken")
	}
	for _, id := range rep.MatFailed {
		if d.backoff.allowed(id) {
			t.Errorf("view %s not blacklisted after a permanent fault", shortID(id))
		}
	}
	rep2 := run(t, d, q30(1000, 2999))
	if len(rep2.MatFailed) != 0 {
		t.Errorf("second query re-attempted blacklisted views: %v", rep2.MatFailed)
	}
}
