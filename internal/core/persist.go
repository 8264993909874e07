package core

import (
	"encoding/json"
	"fmt"

	"deepsea/internal/datastore"
	"deepsea/internal/interval"
	"deepsea/internal/matching"
	"deepsea/internal/partition"
	"deepsea/internal/relation"
	"deepsea/internal/stats"
)

// This file is the manager side of the persistence boundary: building
// snapshots of everything DeepSea learned online, journaling the
// statistics writes the components cannot see (measured sizes and
// costs are plain field assignments, not method calls), and recovery —
// snapshot load plus journal tail replay through the very same mutation
// APIs the live system uses, so a recovered instance is byte-identical
// to the crashed one up to the journal's last durable record.

// coreSnapshot is the JSON payload handed to the datastore: the full
// durable state of one instance. Base tables are absent by design — they
// are workload input the host re-adds on boot, not learned state.
type coreSnapshot struct {
	// Clock is the simulated time; restoring it keeps decay weights
	// monotone across the restart.
	Clock float64 `json:"clock"`
	// Files is the simulated file system's contents — every materialized
	// view file and fragment, with its rows.
	Files []fileSnap `json:"files,omitempty"`
	// Views is the pool manifest. (Snapshots of older builds also carry
	// a map of retired per-view cache counters; decoding ignores it.)
	Views []poolViewSnap `json:"views,omitempty"`
	// Stats is the full statistics registry (Φ bookkeeping).
	Stats *stats.RegistrySnap `json:"stats,omitempty"`
	// Entries is the signature index — without it a recovered pool holds
	// views no query could ever match.
	Entries []*matching.Entry `json:"entries,omitempty"`
	// Appends is the accumulated ingest suffix of each base table (base
	// originals are workload input the host re-adds; the appends are
	// learned state only this snapshot holds). Ingest is the per-view
	// refresh metadata — tables read, consistency marks, staleness.
	Appends []appendSnap `json:"appends,omitempty"`
	Ingest  []ingestSnap `json:"ingest,omitempty"`
}

type fileSnap struct {
	Path string          `json:"path"`
	Size int64           `json:"size"`
	Rows *relation.Table `json:"rows,omitempty"`
}

type poolViewSnap struct {
	ID     string          `json:"id"`
	Schema relation.Schema `json:"schema"`
	Path   string          `json:"path,omitempty"`
	Size   int64           `json:"size,omitempty"`
	Parts  []poolPartSnap  `json:"parts,omitempty"`
}

type poolPartSnap struct {
	Attr        string               `json:"attr"`
	Dom         interval.Interval    `json:"dom"`
	Overlapping bool                 `json:"overlapping,omitempty"`
	Frags       []partition.Fragment `json:"frags,omitempty"`
}

// RecoveryInfo reports what recovery did at construction time, for the
// health surface.
type RecoveryInfo struct {
	// Ran reports that the datastore held previous state and recovery
	// processed it. FromSnapshot reports a snapshot was loaded (as
	// opposed to a journal-only recovery).
	Ran          bool
	FromSnapshot bool
	// Replayed counts journal tail records applied; Skipped counts
	// records that could not be applied (and were dropped).
	Replayed int
	Skipped  int
	// Err is the fatal-recovery error, if any. A fatal error resets the
	// instance to a cold start and overwrites the stored state with a
	// cold snapshot, so the corrupt history cannot replay again.
	Err string
}

// appendRecord journals one mutation record at once, so a record reaches
// the store before the call that wrote it returns — a query, an Append
// or a worker's drain cycle alike. Append errors degrade durability,
// never correctness: the store counts them and they surface via Health.
func (d *DeepSea) appendRecord(rec datastore.Record) {
	if d.store != nil {
		_ = d.store.Append(&rec)
	}
}

// journalVStat journals a view statistic's measured size/cost fields —
// the one class of statistics write that is a plain field assignment at
// the call sites rather than a registry mutation, so the registry's own
// journal hooks cannot see it.
func (d *DeepSea) journalVStat(vs *stats.ViewStat) {
	if d.store == nil {
		return
	}
	d.appendRecord(datastore.Record{Op: "vstat", View: vs.ID, Size: vs.Size, Cost: vs.Cost, Measured: vs.Measured})
}

// journalFStat is journalVStat for a fragment statistic.
func (d *DeepSea) journalFStat(viewID, attr string, fs *stats.FragStat) {
	if d.store == nil {
		return
	}
	d.appendRecord(datastore.Record{Op: "fstat", View: viewID, Attr: attr, Iv: fs.Iv, Size: fs.Size, Measured: fs.Measured})
}

// Datastore returns the attached store (nil when the instance runs
// without persistence).
func (d *DeepSea) Datastore() datastore.Store { return d.store }

// Recovery returns what recovery did when this instance was built.
func (d *DeepSea) Recovery() RecoveryInfo { return d.recovered }

// Snapshot persists the full durable state to the attached datastore and
// truncates the journal. It holds the manager lock, so no mutation —
// pool, statistics, engine files, clock — is in flight while the state
// is captured, and no journal record can slip between the capture and
// the snapshot's covering sequence number. A nil datastore makes it a
// no-op.
func (d *DeepSea) Snapshot() error {
	if d.store == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	data, err := json.Marshal(d.buildSnapshot())
	if err != nil {
		return fmt.Errorf("core: encode snapshot: %w", err)
	}
	return d.store.WriteSnapshot(data)
}

// buildSnapshot captures the durable state. Caller holds the manager
// lock, so the walk is consistent.
func (d *DeepSea) buildSnapshot() *coreSnapshot {
	snap := &coreSnapshot{
		Clock:   d.Eng.Now(),
		Stats:   d.Stats.Snapshot(),
		Entries: d.Tree.Entries(),
	}
	for _, f := range d.Eng.FS().List() {
		snap.Files = append(snap.Files, fileSnap{
			Path: f.Path, Size: f.Size, Rows: d.Eng.Materialized(f.Path),
		})
	}
	for _, v := range d.Pool.Views() {
		vs := poolViewSnap{ID: v.ID, Schema: v.Schema, Path: v.Path, Size: v.Size}
		for _, attr := range v.PartAttrs() {
			part := v.Parts[attr]
			vs.Parts = append(vs.Parts, poolPartSnap{
				Attr: attr, Dom: part.Dom, Overlapping: part.Overlapping,
				Frags: part.Fragments(),
			})
		}
		snap.Views = append(snap.Views, vs)
	}
	snap.Appends, snap.Ingest = d.ingestSnapshot()
	return snap
}

// recoverFromStore loads the snapshot and journal tail and replays them
// into the freshly built (empty) components. Per-record replay failures
// are skipped and counted; a structural failure (unreadable store,
// undecodable snapshot, a pool that fails its consistency walk) is
// returned as fatal and the caller discards the half-restored instance.
// Journals must not be attached yet: replay goes through the same
// mutation APIs as live traffic and would otherwise journal its echoes.
func (d *DeepSea) recoverFromStore() error {
	data, tail, err := d.store.Load()
	if err != nil {
		return fmt.Errorf("core: load datastore: %w", err)
	}
	if data == nil && len(tail) == 0 {
		return nil // cold start
	}
	d.recovered.Ran = true
	if data != nil {
		var snap coreSnapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			return fmt.Errorf("core: decode snapshot: %w", err)
		}
		d.applySnapshot(&snap)
		d.recovered.FromSnapshot = true
	}
	for i := range tail {
		if err := d.applyRecord(&tail[i]); err != nil {
			d.recovered.Skipped++
		} else {
			d.recovered.Replayed++
		}
	}
	// The recovered pool must pass the same consistency walk the live
	// system is held to: the incremental size counter replayed through
	// the mutation API has to agree with a full walk of the contents.
	if err := d.Pool.VerifySize(); err != nil {
		return fmt.Errorf("core: recovered pool failed consistency walk: %w", err)
	}
	return nil
}

// applySnapshot rebuilds the components from a snapshot, in dependency
// order: files first (fragment adds do not check storage, but keeping
// storage ahead of the manifest preserves the live system's invariant
// that the pool never names a missing file), then the pool manifest
// through its mutation API, then statistics.
func (d *DeepSea) applySnapshot(snap *coreSnapshot) {
	for _, f := range snap.Files {
		d.Eng.RestoreFile(f.Path, f.Size, f.Rows)
	}
	d.Eng.SetClock(snap.Clock)
	for _, v := range snap.Views {
		d.Pool.Ensure(v.ID, v.Schema)
		if v.Path != "" {
			d.Pool.SetViewFile(v.ID, v.Path, v.Size)
		}
		for _, pt := range v.Parts {
			d.Pool.EnsurePartition(v.ID, pt.Attr, pt.Dom, pt.Overlapping)
			for _, fr := range pt.Frags {
				d.Pool.AddFragment(v.ID, pt.Attr, fr)
			}
		}
	}
	d.Stats.Restore(snap.Stats)
	for _, e := range snap.Entries {
		if e == nil || e.Sig == nil {
			continue
		}
		e.Sig.SetSchema(e.Schema)
		d.Tree.Add(e)
	}
	for _, a := range snap.Appends {
		d.bufferRecoveredAppend(a.Table, a.Rows)
	}
	for _, m := range snap.Ingest {
		d.restoreIngestMeta(m.View, m.Tables, m.Marks, m.Stale)
	}
}

// applyRecord replays one journal record through the live mutation
// APIs. The pool treats some impossible sequences as panics (mutating
// an unknown view); replay converts those into per-record errors so one
// bad record costs itself, not the boot.
func (d *DeepSea) applyRecord(rec *datastore.Record) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: replay %s: %v", rec.Op, r)
		}
	}()
	switch rec.Op {
	case "ensure_view":
		var sch relation.Schema
		if rec.Schema != nil {
			sch = *rec.Schema
		}
		d.Pool.Ensure(rec.View, sch)
	case "remove_view":
		d.Pool.Remove(rec.View)
	case "set_view_file":
		d.Pool.SetViewFile(rec.View, rec.Path, rec.Size)
	case "drop_view_file":
		d.Pool.DropViewFile(rec.View)
	case "ensure_part":
		d.Pool.EnsurePartition(rec.View, rec.Attr, rec.Dom, rec.Overlapping)
	case "add_frag":
		d.Pool.AddFragment(rec.View, rec.Attr, partition.Fragment{Iv: rec.Iv, Path: rec.Path, Size: rec.Size})
	case "remove_frag":
		d.Pool.RemoveFragment(rec.View, rec.Attr, rec.Iv)
	case "put_file":
		d.Eng.RestoreFile(rec.Path, rec.Size, rec.Rows)
	case "del_file":
		d.Eng.DeleteMaterialized(rec.Path)
	case "append_file":
		// Rows carries the appended suffix; combine with whatever the file
		// held when the record was written (snapshot state or an earlier
		// put_file/append_file replay) and restore at the new total size.
		var combined *relation.Table
		if rec.Rows != nil {
			if prev := d.Eng.Materialized(rec.Path); prev != nil {
				combined = &relation.Table{Schema: prev.Schema}
				combined.Rows = append(append([]relation.Row(nil), prev.Rows...), rec.Rows.Rows...)
			} else {
				combined = rec.Rows
			}
		}
		d.Eng.RestoreFile(rec.Path, rec.Size, combined)
	case "inval_view":
		// Retired: older builds journaled a per-view cache generation
		// bump here. It changed no pool content, so it replays as nothing.
	case "append_rows":
		// Base-table appends replay after the host re-adds the originals:
		// buffer until ApplyRecoveredAppends.
		if rec.Rows == nil {
			return fmt.Errorf("core: replay append_rows: missing rows")
		}
		d.bufferRecoveredAppend(rec.Rows.Schema.Name, rec.Rows)
	case "ingest_marks":
		d.restoreIngestMeta(rec.View, rec.Tables, rec.Marks, false)
	case "ingest_stale":
		d.markIngestStale(rec.View)
	case "clock":
		d.Eng.SetClock(rec.T)
	case "track_view":
		if rec.Sig == nil || rec.Schema == nil {
			return fmt.Errorf("core: replay track_view %s: missing signature", rec.View)
		}
		rec.Sig.SetSchema(*rec.Schema)
		d.Tree.Add(&matching.Entry{ID: rec.View, Sig: rec.Sig, Schema: *rec.Schema})
	case "part":
		d.Stats.Partition(rec.View, rec.Attr, rec.Dom)
	case "use":
		d.Stats.View(rec.View).RecordUse(rec.T, rec.Saving)
	case "vstat":
		vs := d.Stats.View(rec.View)
		vs.Size, vs.Cost, vs.Measured = rec.Size, rec.Cost, rec.Measured
	case "hit", "refine", "frag_drop", "fstat":
		p, ok := d.Stats.LookupPartition(rec.View, rec.Attr)
		if !ok {
			return fmt.Errorf("core: replay %s: unknown partition %s.%s", rec.Op, rec.View, rec.Attr)
		}
		switch rec.Op {
		case "hit":
			p.Frag(rec.Iv).RecordHit(rec.T)
		case "refine":
			p.RefineCand(rec.Iv)
		case "frag_drop":
			p.Drop(rec.Iv)
		case "fstat":
			f := p.Frag(rec.Iv)
			f.Size, f.Measured = rec.Size, rec.Measured
		}
	default:
		return fmt.Errorf("core: replay unknown op %q (seq %d)", rec.Op, rec.Seq)
	}
	return nil
}
