package engine

import (
	"fmt"
	"runtime"
	"sync"

	"deepsea/internal/datastore"
	"deepsea/internal/faults"
	"deepsea/internal/relation"
	"deepsea/internal/storage"
)

// Engine is the simulated SQL-on-Hadoop execution engine. It owns the
// base-table catalog, the materialized view/fragment store, the simulated
// file system and the simulated clock.
//
// With ExecuteRows enabled (the default) every plan is evaluated over
// real rows, so rewriting correctness is observable; with it disabled the
// engine runs in estimate-only mode, in which only the cost model runs —
// the mode the paper's own simulator uses for large parameter sweeps.
//
// Run may be called from multiple goroutines: the catalog maps and the
// clock are guarded by mu, and the data path works on tables that are
// immutable once stored. ExecuteRows and Parallelism are configuration —
// set them before the first concurrent use.
type Engine struct {
	cm CostModel
	fs *storage.FS

	// mu guards base, mat and clock so concurrent Run calls can overlap
	// a view manager's materialize/evict critical section.
	mu   sync.RWMutex
	base map[string]*relation.Table
	mat  map[string]*relation.Table

	// ExecuteRows selects real execution (true) or estimate-only mode.
	ExecuteRows bool

	// Parallelism is the worker count for the row data path (filter,
	// project, join, aggregate). New sets it to runtime.GOMAXPROCS(0);
	// values <= 1 run sequentially. Results are byte-identical for every
	// setting: chunk boundaries depend only on input sizes, so merge
	// order never varies with the worker count.
	Parallelism int

	// faults, when non-nil, injects deterministic faults into the data
	// path (worker tasks, view/fragment reads). Set before concurrent
	// use; nil is the fault-free production configuration.
	faults *faults.Injector

	clock float64

	// baseVersion counts base-catalog mutations. Result-cache keys embed
	// it so cached rows never survive a base-table change.
	baseVersion uint64

	// journal, when non-nil, receives a record per materialized-file
	// write/delete and per clock advance, emitted under e.mu. Base tables
	// are deliberately not journaled: they are workload input, reloaded
	// by the host on boot, not state the manager learned.
	journal func(datastore.Record)
}

// New returns an engine with the given cost model. The simulated clock
// starts at one second so that the paper's decay function t/tnow is
// always well defined.
func New(cm CostModel) *Engine {
	return &Engine{
		cm:          cm,
		fs:          storage.NewFS(cm.BlockSize),
		base:        make(map[string]*relation.Table),
		mat:         make(map[string]*relation.Table),
		ExecuteRows: true,
		Parallelism: runtime.GOMAXPROCS(0),
		clock:       1,
	}
}

// par returns the effective data-path worker count (>= 1).
func (e *Engine) par() int {
	if e.Parallelism > 1 {
		return e.Parallelism
	}
	return 1
}

// CostModel returns the engine's cost model.
func (e *Engine) CostModel() *CostModel { return &e.cm }

// FS exposes the simulated file system (pool accounting, tests).
func (e *Engine) FS() *storage.FS { return e.fs }

// SetFaults attaches a fault injector to the engine and its file
// system; nil (the default) disables injection. Set before concurrent
// use.
func (e *Engine) SetFaults(in *faults.Injector) {
	e.faults = in
	e.fs.SetFaults(in)
}

// Faults returns the attached fault injector (nil when fault-free).
func (e *Engine) Faults() *faults.Injector { return e.faults }

// SetJournal attaches a mutation journal to the engine; nil detaches
// it. Set before concurrent use (and detach during recovery replay).
func (e *Engine) SetJournal(fn func(datastore.Record)) {
	e.mu.Lock()
	e.journal = fn
	e.mu.Unlock()
}

// emit journals one record; caller holds e.mu.
func (e *Engine) emit(rec datastore.Record) {
	if e.journal != nil {
		e.journal(rec)
	}
}

// Now returns the simulated time in seconds.
func (e *Engine) Now() float64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.clock
}

// Advance moves the simulated clock forward by d seconds.
func (e *Engine) Advance(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("engine: clock moved backwards by %g", d))
	}
	e.mu.Lock()
	e.clock += d
	e.emit(datastore.Record{Op: "clock", T: e.clock})
	e.mu.Unlock()
}

// SetClock restores the simulated clock from a snapshot or journal
// record. Restoring never moves the clock backwards: the paper's decay
// t/tnow assumes monotone time.
func (e *Engine) SetClock(t float64) {
	e.mu.Lock()
	if t > e.clock {
		e.clock = t
	}
	e.mu.Unlock()
}

// AddBaseTable registers a base table in the catalog and bumps the
// base-catalog version, invalidating every cached result derived from
// the old catalog.
func (e *Engine) AddBaseTable(t *relation.Table) {
	e.mu.Lock()
	e.base[t.Schema.Name] = t
	e.baseVersion++
	e.mu.Unlock()
}

// BaseVersion returns the base-catalog version: a counter bumped by
// every AddBaseTable. Result-cache keys embed it so a catalog change
// (new data, replaced table) makes all earlier cache keys unreachable.
func (e *Engine) BaseVersion() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.baseVersion
}

// BaseTable returns a base table by name, or nil.
func (e *Engine) BaseTable(name string) *relation.Table {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.base[name]
}

// AppendBase appends rows to a base table by publishing a fresh table
// value whose row slice has its own backing array: plan executions that
// already resolved the old *Table keep reading a consistent prefix
// snapshot, and earlier snapshots remain exact prefixes of later ones —
// the invariant incremental view maintenance depends on. The
// base-catalog version is deliberately not bumped: an append is a
// precise-invalidation event (per-table row counts in cache keys,
// per-view staleness), not a catalog change. Returns the new row count.
func (e *Engine) AppendBase(name string, rows []relation.Row) (int64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	old := e.base[name]
	if old == nil {
		return 0, fmt.Errorf("engine: unknown base table %q", name)
	}
	for _, r := range rows {
		if len(r) != len(old.Schema.Cols) {
			return 0, fmt.Errorf("engine: append row width %d != schema width %d for %s",
				len(r), len(old.Schema.Cols), name)
		}
	}
	nt := &relation.Table{Schema: old.Schema}
	nt.Rows = append(old.Rows[:len(old.Rows):len(old.Rows)], rows...)
	e.base[name] = nt
	return int64(len(nt.Rows)), nil
}

// BaseSnapshots returns the current snapshot of each named base table
// under one catalog-lock acquisition, so the per-table row counts are
// mutually consistent even while appends land concurrently. Unknown
// tables surface as an error.
func (e *Engine) BaseSnapshots(names []string) (map[string]*relation.Table, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make(map[string]*relation.Table, len(names))
	for _, n := range names {
		t := e.base[n]
		if t == nil {
			return nil, fmt.Errorf("engine: unknown base table %q", n)
		}
		out[n] = t
	}
	return out, nil
}

// BaseCounts returns the current row count of each named base table
// under one catalog-lock acquisition (0 for unknown tables). Result
// cache keys embed these counts so an append precisely unreaches every
// cached result over the grown tables.
func (e *Engine) BaseCounts(names []string) map[string]int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make(map[string]int64, len(names))
	for _, n := range names {
		if t := e.base[n]; t != nil {
			out[n] = int64(len(t.Rows))
		}
	}
	return out
}

// BaseBytes returns the total modelled size of all base tables.
func (e *Engine) BaseBytes() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var total int64
	for _, t := range e.base {
		total += t.Bytes()
	}
	return total
}

// WriteMaterialized stores a materialized result under path (exec mode)
// and returns the write cost. The caller decides whether the cost is
// charged to the workload (view creation is; test setup is not). A
// failed write (injected storage fault) stores nothing.
//
// This is the storage boundary of the slab ownership rule: the store
// keeps a copy of t in one allocation of its own, never t's rows.
// Operator output is carved from slabs shared by up to SlabRows rows
// and fragments are built by picking rows out of a captured table, so
// storing the rows themselves would let a fragment holding 5% of a
// query's output keep all of that query's slabs alive.
func (e *Engine) WriteMaterialized(path string, t *relation.Table) (Cost, error) {
	return e.writeMaterialized(path, t, true)
}

// RewriteMaterialized is WriteMaterialized for a table assembled from
// rows the store already holds — a split, a merge, a re-partitioning.
// Those rows were copied when they first crossed the boundary and pin
// no query's slabs, so the store shares them: a fragment that overlaps
// its parent costs no second copy.
func (e *Engine) RewriteMaterialized(path string, t *relation.Table) (Cost, error) {
	return e.writeMaterialized(path, t, false)
}

func (e *Engine) writeMaterialized(path string, t *relation.Table, copyRows bool) (Cost, error) {
	bytes := t.Bytes()
	if err := e.fs.Write(path, bytes); err != nil {
		return Cost{}, err
	}
	if copyRows {
		t = t.Clone()
	}
	e.mu.Lock()
	e.mat[path] = t
	e.emit(datastore.Record{Op: "put_file", Path: path, Size: bytes, Rows: t})
	e.mu.Unlock()
	return Cost{Seconds: e.cm.WriteCost(bytes, 1), WriteBytes: bytes}, nil
}

// WriteMaterializedSize records a materialized file of the given size
// without row data (estimate-only mode) and returns the write cost.
func (e *Engine) WriteMaterializedSize(path string, bytes int64) (Cost, error) {
	if err := e.fs.Write(path, bytes); err != nil {
		return Cost{}, err
	}
	e.mu.Lock()
	delete(e.mat, path)
	e.emit(datastore.Record{Op: "put_file", Path: path, Size: bytes})
	e.mu.Unlock()
	return Cost{Seconds: e.cm.WriteCost(bytes, 1), WriteBytes: bytes}, nil
}

// AppendMaterialized extends a stored materialized file with delta
// rows, charging only the delta's write cost — the storage primitive of
// incremental view refresh. The combined table is published as a fresh
// value with its own backing array, so a concurrent reader holding the
// old table keeps a consistent earlier version of the view. Like
// WriteMaterialized it stores a copy of the delta rows.
func (e *Engine) AppendMaterialized(path string, delta []relation.Row) (Cost, error) {
	e.mu.RLock()
	old := e.mat[path]
	e.mu.RUnlock()
	if old == nil {
		return Cost{}, fmt.Errorf("engine: materialized file %s has no stored rows to append to", path)
	}
	bytes := int64(len(old.Rows)+len(delta)) * old.Schema.RowWidth()
	if err := e.fs.Write(path, bytes); err != nil {
		return Cost{}, err
	}
	delta = relation.CloneRows(delta)
	nt := &relation.Table{Schema: old.Schema}
	nt.Rows = append(old.Rows[:len(old.Rows):len(old.Rows)], delta...)
	deltaTbl := &relation.Table{Schema: old.Schema, Rows: delta}
	deltaBytes := deltaTbl.Bytes()
	e.mu.Lock()
	e.mat[path] = nt
	e.emit(datastore.Record{Op: "append_file", Path: path, Size: bytes, Rows: deltaTbl})
	e.mu.Unlock()
	return Cost{Seconds: e.cm.WriteCost(deltaBytes, 1), WriteBytes: deltaBytes}, nil
}

// ReadMaterialized returns the stored rows for path (nil in estimate-only
// mode) and the cost of a full scan of the file. A failed read (missing
// file, injected storage fault) is the caller's to handle: the file may
// still exist, only this read of it failed.
func (e *Engine) ReadMaterialized(path string) (*relation.Table, Cost, error) {
	if !e.fs.Exists(path) {
		return nil, Cost{}, fmt.Errorf("engine: materialized file %s does not exist", path)
	}
	bytes, err := e.fs.Read(path)
	if err != nil {
		return nil, Cost{}, err
	}
	sec, tasks := e.cm.ReadCost(bytes, 1)
	return e.Materialized(path), Cost{Seconds: sec, ReadBytes: bytes, MapTasks: tasks}, nil
}

// Materialized returns the stored rows for path without accounting any
// cost (used by the executor, which accounts reads itself).
func (e *Engine) Materialized(path string) *relation.Table {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.mat[path]
}

// MaterializedBytes returns the stored size of path (0 if absent).
func (e *Engine) MaterializedBytes(path string) int64 { return e.fs.Size(path) }

// DeleteMaterialized evicts a stored file. Deletion is metadata-only and
// costs nothing, like an HDFS delete.
func (e *Engine) DeleteMaterialized(path string) {
	e.fs.Delete(path)
	e.mu.Lock()
	delete(e.mat, path)
	e.emit(datastore.Record{Op: "del_file", Path: path})
	e.mu.Unlock()
}

// RestoreFile recreates a materialized file during recovery — no write
// cost, no I/O accounting, no fault check, no journal echo. rows may be
// nil (estimate-only mode or a snapshot that dropped payloads).
func (e *Engine) RestoreFile(path string, size int64, rows *relation.Table) {
	e.fs.Restore(path, size)
	e.mu.Lock()
	if rows != nil {
		e.mat[path] = rows
	} else {
		delete(e.mat, path)
	}
	e.mu.Unlock()
}
