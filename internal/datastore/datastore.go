// Package datastore is the persistence boundary of the view manager:
// everything DeepSea learns online — pool contents, fragment boundaries,
// per-view Φ statistics, the simulated clock — funnels through a Store
// as a write-ahead journal of mutation records plus periodic opaque
// snapshots. The Store itself is deliberately dumb: it orders, checksums
// and replays records, but never interprets them; building and applying
// snapshots and records is the caller's job (see core's recovery).
//
// Two implementations ship: Null, the in-memory no-op that preserves the
// historical volatile behaviour, and FileStore, a directory holding a
// CRC-protected JSON-lines journal plus an atomically replaced snapshot
// file. Recovery is snapshot load + journal tail replay; records carry
// monotone sequence numbers so a tail overlapping the snapshot (a crash
// between snapshot publication and journal truncation) replays each
// mutation exactly once.
package datastore

import (
	"deepsea/internal/faults"
	"deepsea/internal/interval"
	"deepsea/internal/relation"
	"deepsea/internal/signature"
)

// Record is one journaled mutation. Op discriminates which of the
// optional fields are meaningful; Seq is assigned by the Store on append
// and is strictly increasing within one journal. The ops mirror the
// mutation APIs they are emitted from:
//
//	pool:    ensure_view, remove_view, set_view_file, drop_view_file,
//	         ensure_part, add_frag, remove_frag
//	engine:  put_file (Rows carries the stored file), del_file,
//	         append_file (Rows carries the appended suffix; Size is the
//	         new total), clock
//	stats:   part, use, hit, refine, frag_drop, vstat, fstat
//	index:   track_view (signature-index entry for view matching)
//	ingest:  append_rows (Rows carries appended base rows, the table
//	         named by their schema; Size is the table's new count),
//	         ingest_marks (View's content is consistent with Tables at
//	         the row counts in Marks), ingest_stale (View's content
//	         lags its base tables)
//	retired: inval_view (a per-view cache generation bump older builds
//	         wrote; replay reads it and ignores it)
type Record struct {
	Seq uint64 `json:"seq"`
	Op  string `json:"op"`

	View string `json:"v,omitempty"`
	Attr string `json:"a,omitempty"`
	Path string `json:"p,omitempty"`
	Size int64  `json:"n,omitempty"`

	Iv  interval.Interval `json:"iv"`
	Dom interval.Interval `json:"dom"`
	// Overlapping carries ensure_part's partition mode.
	Overlapping bool `json:"ov,omitempty"`

	// Schema carries ensure_view's output schema; Rows carries put_file's
	// materialized table, so a warm restart can serve rows.
	Schema *relation.Schema `json:"sch,omitempty"`
	Rows   *relation.Table  `json:"rows,omitempty"`

	// Sig carries track_view's view signature, so recovery can rebuild
	// the matching index without re-deriving signatures from queries.
	Sig *signature.Signature `json:"sig,omitempty"`

	// Tables and Marks carry ingest_marks' consistency point: the base
	// tables a view reads and the row count of each at which the view's
	// stored content is exact. A warm restart keeps a view only if its
	// marks match the recovered base counts.
	Tables []string         `json:"tbls,omitempty"`
	Marks  map[string]int64 `json:"marks,omitempty"`

	// T is a simulated timestamp (clock, use, hit); Saving and Cost are
	// benefit/cost figures (use, vstat); Measured mirrors the statistics
	// records' estimated-vs-actual flag (vstat, fstat).
	T        float64 `json:"t,omitempty"`
	Saving   float64 `json:"sv,omitempty"`
	Cost     float64 `json:"c,omitempty"`
	Measured bool    `json:"m,omitempty"`
}

// StoreStats counts one store handle's activity plus its durable
// positions, for the health surface.
type StoreStats struct {
	// Records and Bytes count journal appends through this handle.
	Records uint64
	Bytes   int64
	// AppendErrors and SnapshotErrors count failed durability operations
	// (injected faults included). Appends are best-effort: an error
	// degrades durability, never correctness, but it belongs on /healthz.
	AppendErrors   uint64
	Snapshots      uint64
	SnapshotErrors uint64
	// TornTailRepairs counts journal tails dropped at open because their
	// last line was incomplete or failed its checksum (the expected
	// aftermath of a crash mid-append).
	TornTailRepairs uint64
	// LastSeq is the highest sequence number assigned; SnapshotSeq is the
	// sequence the latest snapshot covers through.
	LastSeq     uint64
	SnapshotSeq uint64
}

// Store is the persistence boundary. Implementations must be safe for
// concurrent use: appends may arrive from any goroutine holding its own
// component lock, and WriteSnapshot runs while the caller quiesces the
// system.
type Store interface {
	// Append assigns the record its sequence number and journals it. An
	// error means the record is not durable; the in-memory state it
	// describes is already applied, so callers count the error and keep
	// going.
	Append(rec *Record) error
	// AppendGroup journals a batch of records as one store call:
	// sequence numbers are assigned contiguously in slice order and the
	// batch reaches the kernel with a single flush. Appends are
	// best-effort record by record, like Append: a failed record is
	// counted and skipped, the rest of the group still lands, and the
	// first error is returned. Nothing in the system calls it — every
	// record goes through Append — and it remains only because the
	// benchmark's tracing store wraps it.
	AppendGroup(recs []*Record) error
	// WriteSnapshot atomically replaces the stored snapshot with data
	// (opaque to the store) covering every record appended so far, then
	// discards the now-redundant journal prefix.
	WriteSnapshot(data []byte) error
	// Load returns the current snapshot (nil if none) and the journal
	// records appended after it, in append order.
	Load() (snapshot []byte, tail []Record, err error)
	// Flush forces buffered journal bytes to stable storage.
	Flush() error
	// Close flushes and releases the store.
	Close() error
	// Stats returns a snapshot of the store's counters.
	Stats() StoreStats
	// SetFaults attaches a fault injector (JournalAppend/SnapshotWrite
	// sites); nil runs fault-free. Set before concurrent use.
	SetFaults(in *faults.Injector)
}

// Null is the in-memory no-op store: nothing is journaled, Load finds
// nothing, and every operation succeeds. It is the explicit spelling of
// the historical volatile behaviour.
type Null struct{}

// Append discards the record.
func (Null) Append(*Record) error { return nil }

// AppendGroup discards the records.
func (Null) AppendGroup([]*Record) error { return nil }

// WriteSnapshot discards the snapshot.
func (Null) WriteSnapshot([]byte) error { return nil }

// Load finds nothing.
func (Null) Load() ([]byte, []Record, error) { return nil, nil, nil }

// Flush is a no-op.
func (Null) Flush() error { return nil }

// Close is a no-op.
func (Null) Close() error { return nil }

// Stats returns zeros.
func (Null) Stats() StoreStats { return StoreStats{} }

// SetFaults is a no-op.
func (Null) SetFaults(*faults.Injector) {}
