package core

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"deepsea/internal/datastore"
	"deepsea/internal/query"
	"deepsea/internal/relation"
)

// persistWorkload drives enough repeated range queries that views
// materialize, fragments form and refine, and the clock advances —
// among them a partial-mode aggregate, whose states (exact partial sums
// included) are stored as a view of their own. Then
// it stores one more view file by hand, through the calls a view's
// content takes (put_file, append_file), whose rows hold the Int, Float
// and String cells a lossy codec would bend.
func persistWorkload(t *testing.T, d *DeepSea) {
	t.Helper()
	// First, while nothing is stored that could rewrite it: the plan runs
	// as written and its root — the partial aggregate — is captured.
	partial := q30(5000, 9999).(*query.Aggregate)
	partial.Partial = true
	run(t, d, partial)
	for _, q := range []struct{ lo, hi int64 }{
		{0, 4999}, {1000, 2999}, {3000, 4999}, {500, 1499},
		{2000, 2499}, {0, 4999}, {1000, 2999}, {2000, 2499},
	} {
		run(t, d, q30(q.lo, q.hi))
	}
	sums := 0
	for _, f := range d.Eng.FS().List() {
		for _, c := range d.Eng.Materialized(f.Path).Schema.Cols {
			if _, kind, ok := query.SplitPartialCol(c.Name); ok && kind == query.PartialSum {
				sums++
			}
		}
	}
	if sums == 0 {
		t.Fatal("no stored view holds an exact partial sum; the workload does not exercise that cell kind")
	}
	mixed := relation.NewTable(relation.Schema{Name: "mixed", Cols: []relation.Column{
		{Name: "k", Type: relation.Int},
		{Name: "x", Type: relation.Float},
		{Name: "s", Type: relation.String},
	}})
	mixed.Append(relation.Row{relation.IntVal(math.MinInt64), relation.FloatVal(math.Copysign(0, -1)), relation.StringVal("")})
	mixed.Append(relation.Row{relation.IntVal(1<<53 + 1), relation.FloatVal(5e-324), relation.StringVal("quo\"te\nnext é")})
	if _, err := d.Eng.WriteMaterialized(mixedPath, mixed); err != nil {
		t.Fatalf("WriteMaterialized: %v", err)
	}
	if _, err := d.Eng.AppendMaterialized(mixedPath, []relation.Row{{relation.IntVal(math.MaxInt64),
		relation.FloatVal(math.MaxFloat64), relation.StringVal("tail")}}); err != nil {
		t.Fatalf("AppendMaterialized: %v", err)
	}
}

// mixedPath is where persistWorkload stores its hand-built view file.
const mixedPath = "views/mixed/full"

// storedFingerprints maps every stored file to the fingerprint of its
// rows. The manifests compare the files' JSON; this compares the cells,
// which is what catches a codec that writes and reads back the same
// wrong thing.
func storedFingerprints(t *testing.T, d *DeepSea) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, f := range d.Eng.FS().List() {
		tab := d.Eng.Materialized(f.Path)
		if tab == nil {
			t.Fatalf("stored file %s has no rows", f.Path)
		}
		out[f.Path] = tab.Fingerprint()
	}
	return out
}

// durableManifest renders the state recovery must reproduce exactly in
// every mode: the simulated file system, the pool manifest, the cache
// generations and the clock. (Statistics estimates that planning
// recomputes each pass are deliberately not journaled, so they are
// only byte-stable across a snapshot — fullManifest covers that.)
func durableManifest(t *testing.T, d *DeepSea) string {
	t.Helper()
	s := d.buildSnapshot()
	s.Stats = nil
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// fullManifest includes the statistics registry too.
func fullManifest(t *testing.T, d *DeepSea) string {
	t.Helper()
	b, err := json.Marshal(d.buildSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func openStore(t *testing.T, dir string) *datastore.FileStore {
	t.Helper()
	s, err := datastore.Open(dir)
	if err != nil {
		t.Fatalf("datastore.Open: %v", err)
	}
	return s
}

func TestRecoveryFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	s1 := openStore(t, dir)
	d1 := newTestSystem(t, func(c *Config) { c.Datastore = s1 })
	persistWorkload(t, d1)
	if err := d1.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	want := fullManifest(t, d1)
	wantCells := storedFingerprints(t, d1)
	if err := s1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := openStore(t, dir)
	defer s2.Close()
	d2 := newTestSystem(t, func(c *Config) { c.Datastore = s2 })
	rec := d2.Recovery()
	if !rec.Ran || !rec.FromSnapshot || rec.Err != "" {
		t.Fatalf("recovery = %+v, want snapshot recovery with no error", rec)
	}
	if got := fullManifest(t, d2); got != want {
		t.Errorf("recovered state diverges from snapshot:\n got %s\nwant %s", got, want)
	}
	if got := storedFingerprints(t, d2); !reflect.DeepEqual(got, wantCells) || got[mixedPath] == "" {
		t.Errorf("recovered rows diverge from the snapshotted rows:\n got %v\nwant %v", got, wantCells)
	}
	if err := d2.Pool.VerifySize(); err != nil {
		t.Errorf("recovered pool consistency walk: %v", err)
	}

	// The warm pool answers the repeated template from views, and the
	// result matches a vanilla run.
	vanilla := newTestSystem(t, func(c *Config) { c.Materialize = false })
	wantFP := run(t, vanilla, q30(1000, 2999)).Result.Fingerprint()
	rep := run(t, d2, q30(1000, 2999))
	if !rep.Rewritten {
		t.Error("recovered instance did not rewrite a previously hot query")
	}
	if rep.Result.Fingerprint() != wantFP {
		t.Error("recovered instance returned wrong rows")
	}
}

func TestRecoveryJournalOnly(t *testing.T) {
	// No snapshot is ever taken: recovery is pure journal replay, as
	// after a kill -9 before the first checkpoint. The first store is
	// deliberately not closed — a crashed process closes nothing.
	dir := t.TempDir()
	s1 := openStore(t, dir)
	d1 := newTestSystem(t, func(c *Config) { c.Datastore = s1 })
	persistWorkload(t, d1)
	want := durableManifest(t, d1)
	wantCells := storedFingerprints(t, d1)

	// Journaling only records: the same workload without a store ends in
	// the same state.
	volatile := newTestSystem(t, nil)
	persistWorkload(t, volatile)
	if got := durableManifest(t, volatile); got != want {
		t.Errorf("journaled run diverges from volatile run:\njournaled %s\n volatile %s", want, got)
	}

	s2 := openStore(t, dir)
	defer s2.Close()
	d2 := newTestSystem(t, func(c *Config) { c.Datastore = s2 })
	rec := d2.Recovery()
	if !rec.Ran || rec.FromSnapshot || rec.Err != "" {
		t.Fatalf("recovery = %+v, want journal-only recovery with no error", rec)
	}
	if rec.Replayed == 0 {
		t.Fatal("journal-only recovery replayed nothing")
	}
	if rec.Skipped != 0 {
		t.Errorf("replay skipped %d records", rec.Skipped)
	}
	if got := durableManifest(t, d2); got != want {
		t.Errorf("replayed state diverges:\n got %s\nwant %s", got, want)
	}
	if got := storedFingerprints(t, d2); !reflect.DeepEqual(got, wantCells) || got[mixedPath] == "" {
		t.Errorf("replayed rows diverge from the journalled rows:\n got %v\nwant %v", got, wantCells)
	}
	if err := d2.Pool.VerifySize(); err != nil {
		t.Errorf("recovered pool consistency walk: %v", err)
	}
	rep := run(t, d2, q30(1000, 2999))
	if !rep.Rewritten {
		t.Error("journal-recovered instance did not rewrite a hot query")
	}
}

func TestRecoverySnapshotPlusTail(t *testing.T) {
	// A checkpoint mid-workload plus journaled mutations after it: the
	// common crash shape. Recovery loads the snapshot and replays the
	// tail on top.
	dir := t.TempDir()
	s1 := openStore(t, dir)
	d1 := newTestSystem(t, func(c *Config) { c.Datastore = s1 })
	run(t, d1, q30(0, 4999))
	run(t, d1, q30(1000, 2999))
	if err := d1.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	run(t, d1, q30(3000, 4999))
	run(t, d1, q30(1000, 2999))
	run(t, d1, q30(500, 1499))
	want := durableManifest(t, d1)

	s2 := openStore(t, dir)
	defer s2.Close()
	d2 := newTestSystem(t, func(c *Config) { c.Datastore = s2 })
	rec := d2.Recovery()
	if !rec.Ran || !rec.FromSnapshot || rec.Err != "" {
		t.Fatalf("recovery = %+v, want snapshot+tail recovery", rec)
	}
	if rec.Replayed == 0 {
		t.Fatal("no tail records replayed past the snapshot")
	}
	if got := durableManifest(t, d2); got != want {
		t.Errorf("snapshot+tail state diverges:\n got %s\nwant %s", got, want)
	}
	if err := d2.Pool.VerifySize(); err != nil {
		t.Errorf("recovered pool consistency walk: %v", err)
	}
}

func TestRecoveryFatalFallsBackCold(t *testing.T) {
	// A snapshot that is valid JSON but not a core snapshot is a
	// structural failure: the instance must start cold, report the error,
	// and overwrite the stored state so the corruption cannot replay
	// again.
	dir := t.TempDir()
	s1 := openStore(t, dir)
	if err := s1.WriteSnapshot([]byte(`[1,2,3]`)); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	s1.Close()

	s2 := openStore(t, dir)
	d2 := newTestSystem(t, func(c *Config) { c.Datastore = s2 })
	rec := d2.Recovery()
	if !rec.Ran || rec.Err == "" {
		t.Fatalf("recovery = %+v, want a reported fatal error", rec)
	}
	// The cold instance still works...
	rep := run(t, d2, q30(1000, 2999))
	if rep.Result == nil {
		t.Fatal("cold-started instance returned no rows")
	}
	s2.Close()

	// ...and the poisoned history was replaced: the next boot recovers
	// the overwritten (cold) snapshot without error.
	s3 := openStore(t, dir)
	defer s3.Close()
	d3 := newTestSystem(t, func(c *Config) { c.Datastore = s3 })
	if rec := d3.Recovery(); rec.Err != "" {
		t.Fatalf("second boot still fails: %+v", rec)
	}
	if err := d3.Pool.VerifySize(); err != nil {
		t.Errorf("pool consistency walk: %v", err)
	}
}

func TestSnapshotNoopWithoutStore(t *testing.T) {
	d := newTestSystem(t, nil)
	if err := d.Snapshot(); err != nil {
		t.Fatalf("Snapshot without a datastore: %v", err)
	}
	if rec := d.Recovery(); rec.Ran {
		t.Errorf("recovery ran without a datastore: %+v", rec)
	}
}
