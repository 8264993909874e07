// Package deepsea is a from-scratch reproduction of "DeepSea:
// Progressive Workload-Aware Partitioning of Materialized Views in
// Scalable Data Analytics" (Du, Glavic, Tan, Miller; EDBT 2017).
//
// It bundles a simulated SQL-on-Hadoop engine (real row execution, a
// Hive/MapReduce-shaped simulated cost model) with DeepSea's online
// materialized-view manager: logical view matching, progressive
// workload-aware partitioning with overlapping fragments, a decayed
// cost-benefit model with MLE-smoothed fragment statistics, and
// value-ranked pool selection under a storage budget.
//
// Quick start:
//
//	sys := deepsea.New()
//	sys.MustCreateTable(deepsea.TableDef{
//		Name: "sales",
//		Columns: []deepsea.ColumnDef{
//			{Name: "item", Kind: deepsea.Int, Ordered: true, Lo: 0, Hi: 999},
//			{Name: "amount", Kind: deepsea.Float},
//		},
//	})
//	sys.MustInsert("sales", []any{int64(1), 9.99})
//	q := deepsea.Scan("sales").Where("item", 0, 499).
//		GroupBy("item").Agg(deepsea.Sum("amount", "total"))
//	res, err := sys.Run(q)
//
// Each Run both answers the query and lets the view manager adapt: it
// may materialize intermediate results, refine fragment boundaries, or
// evict pool entries, exactly as the paper's Algorithm 1 prescribes.
package deepsea

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"deepsea/internal/core"
	"deepsea/internal/datastore"
	"deepsea/internal/engine"
	"deepsea/internal/faults"
	"deepsea/internal/interval"
	"deepsea/internal/maintain"
	"deepsea/internal/query"
	"deepsea/internal/relation"
)

// Kind is a column type.
type Kind int

// Column kinds.
const (
	Int Kind = iota
	Float
	String
)

// ColumnDef declares one column of a table.
type ColumnDef struct {
	Name string
	Kind Kind
	// Ordered marks an integer column usable as a partition key; Lo and
	// Hi bound its domain.
	Ordered bool
	Lo, Hi  int64
	// Width optionally overrides the modelled byte width of the column
	// (for simulating large datasets with few rows; see the examples).
	Width int64
}

// TableDef declares a base table.
type TableDef struct {
	Name    string
	Columns []ColumnDef
}

// Strategy selects the view-management behaviour.
type Strategy = core.Config

// Option configures a System.
type Option func(*core.Config)

// WithPoolLimit bounds the materialized view pool to smax bytes.
func WithPoolLimit(smax int64) Option {
	return func(c *core.Config) { c.Smax = smax }
}

// WithoutMaterialization disables view management entirely (the vanilla
// engine baseline).
func WithoutMaterialization() Option {
	return func(c *core.Config) { c.Materialize = false }
}

// WithEquiDepthPartitioning switches to non-adaptive equi-depth
// partitioning with k fragments per view.
func WithEquiDepthPartitioning(k int) Option {
	return func(c *core.Config) {
		c.Partition = core.PartitionEquiDepth
		c.EquiDepthK = k
		c.MaxFragFraction = 0
	}
}

// WithoutPartitioning stores views as single files.
func WithoutPartitioning() Option {
	return func(c *core.Config) { c.Partition = core.PartitionNone }
}

// WithHorizontalPartitioning disables overlapping fragments (splits
// rewrite their parents).
func WithHorizontalPartitioning() Option {
	return func(c *core.Config) { c.Partition = core.PartitionAdaptive }
}

// WithUnboundedFragments disables the largest-fragment bound (the
// paper's partitioning experiments run with it off), so cold regions
// stay one big fragment until queries touch them.
func WithUnboundedFragments() Option {
	return func(c *core.Config) { c.MaxFragFraction = 0 }
}

// WithNectarSelection ranks pool entries with Nectar's measure instead
// of DeepSea's decayed Φ.
func WithNectarSelection() Option {
	return func(c *core.Config) { c.Selection = core.SelectNectar }
}

// WithCostModel overrides the simulated cluster's cost constants.
func WithCostModel(cm engine.CostModel) Option {
	return func(c *core.Config) { c.CostModel = &cm }
}

// WithParallelism sets the engine's data-path worker count (0 keeps the
// default of runtime.GOMAXPROCS, 1 forces sequential execution). Query
// results and pool contents are identical for every setting; only real
// wall-clock time changes.
func WithParallelism(n int) Option {
	return func(c *core.Config) { c.Parallelism = n }
}

// WithResultCache enables the fingerprint-keyed result cache, bounded
// to the given number of bytes. Identical repeated queries are answered
// from the cache in O(1); entries are invalidated precisely when a pool
// mutation touches a view the cached plan read. Only meaningful with
// row execution (the default mode).
//
// The bound counts modelled bytes, the unit of WithPoolLimit: an answer
// is accounted at rows × the schema's modelled row width, not at what
// it occupies in memory — a ten-row answer over the generated 200 GB
// instance is about 5 MB, so 64 MB holds about a dozen — and an answer
// larger than an eighth of the bound is never admitted. Size it as the
// number of distinct answers to keep × their modelled size.
func WithResultCache(bytes int64) Option {
	return func(c *core.Config) { c.CacheBytes = bytes }
}

// FaultConfig arms the deterministic fault injector for chaos and
// robustness testing. Each probability is per check at one injection
// site; a zero-valued config never injects. The same seed over the same
// workload reproduces the exact same fault schedule.
type FaultConfig struct {
	// Seed fixes the fault schedule.
	Seed int64
	// StorageRead / StorageWrite / Worker / Materialize are the
	// per-check injection probabilities in [0, 1] at each site.
	StorageRead  float64
	StorageWrite float64
	Worker       float64
	Materialize  float64
	// JournalAppend / SnapshotWrite inject at the datastore boundary
	// (no-ops without WithDatastore): failed appends surface as
	// Health.JournalAppendErrors, failed snapshots as
	// Health.JournalSnapshotErrors; neither fails the query.
	JournalAppend float64
	SnapshotWrite float64
	// PermanentFraction is the fraction of injected faults marked
	// permanent (not worth retrying); the rest are transient.
	PermanentFraction float64
}

// WithFaultInjection enables deterministic fault injection. The system
// degrades gracefully: unreadable view files are quarantined and the
// query re-answered from base tables, failed materializations never
// fail the query (the view backs off and is eventually blacklisted),
// and transient worker faults are retried up to the WithFaultRetries
// bound.
func WithFaultInjection(fc FaultConfig) Option {
	return func(c *core.Config) {
		c.Faults = &faults.Config{
			Seed:              fc.Seed,
			StorageRead:       fc.StorageRead,
			StorageWrite:      fc.StorageWrite,
			Worker:            fc.Worker,
			Materialize:       fc.Materialize,
			JournalAppend:     fc.JournalAppend,
			SnapshotWrite:     fc.SnapshotWrite,
			PermanentFraction: fc.PermanentFraction,
		}
	}
}

// WithFaultRetries bounds the transparent re-plan/re-execute attempts
// per query when injected faults abort execution (default 3).
func WithFaultRetries(n int) Option {
	return func(c *core.Config) { c.FaultRetries = n }
}

// Datastore is the persistence boundary a System journals through. Use
// OpenJournal for the file-backed implementation or implement the
// interface for custom backends; datastore.Null (and a nil store) keep
// the historical in-memory-only behaviour.
type Datastore = datastore.Store

// OpenJournal opens (or creates) the file-backed datastore rooted at
// dir: a write-ahead journal of pool, statistics and file mutations
// plus periodic snapshots. Pass the result to WithDatastore; the caller
// owns it and should Close it after the System is drained. A journal
// left behind by a previous process — even one that was killed
// mid-write — is recovered on the next New that mounts it. A journal
// written in another build's record format is refused with
// ErrJournalFormat and left untouched; it is not migrated.
func OpenJournal(dir string) (Datastore, error) {
	return datastore.Open(dir)
}

// ErrJournalFormat is the error OpenJournal wraps when a journal line
// passes its checksum but does not decode (see datastore.ErrJournalFormat).
var ErrJournalFormat = datastore.ErrJournalFormat

// WithDatastore mounts a persistence store: every pool, statistics and
// materialized-file mutation is journaled through it, and New first
// replays the store's snapshot and journal tail so a restarted process
// resumes with pool contents and hit statistics intact. Health reports
// the recovery outcome and the journal's running counters.
func WithDatastore(ds Datastore) Option {
	return func(c *core.Config) { c.Datastore = ds }
}

// WithBackgroundMaintenance moves all pool maintenance — view and
// fragment materialization, splits, merges, sweeps — off the query
// path onto a bounded worker pool. Queries enqueue prioritized
// candidates and return after execution alone; workers drain the queue
// in Φ order, re-validating each task against the live pool so stale
// work no-ops. workers is the drain concurrency (0 keeps the default
// inline mode); queue bounds the pending-task heap (0 means the
// default of 1024). When the queue is full new candidates are dropped
// — maintenance is advisory, so a dropped task only delays
// materialization until a later query re-proposes it.
func WithBackgroundMaintenance(workers, queue int) Option {
	return func(c *core.Config) {
		c.MaintWorkers = workers
		c.MaintQueue = queue
	}
}

// WithConfig replaces the whole configuration (advanced use).
func WithConfig(cfg Strategy) Option {
	return func(c *core.Config) { *c = cfg }
}

// System is a DeepSea instance: a simulated analytics engine plus the
// adaptive materialized-view pool.
type System struct {
	ds      *core.DeepSea
	schemas map[string]relation.Schema
	// slabs holds each table's load-time row allocator: Insert carves
	// rows out of shared allocations instead of making one per row.
	slabs map[string]*relation.Slab
}

// New creates a System. Without options it runs full DeepSea with an
// unlimited pool.
func New(opts ...Option) *System {
	cfg := core.DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return &System{
		ds:      core.New(cfg),
		schemas: make(map[string]relation.Schema),
		slabs:   make(map[string]*relation.Slab),
	}
}

// CreateTable registers an empty base table.
func (s *System) CreateTable(def TableDef) error {
	if def.Name == "" {
		return fmt.Errorf("deepsea: table needs a name")
	}
	if _, ok := s.schemas[def.Name]; ok {
		return fmt.Errorf("deepsea: table %q already exists", def.Name)
	}
	schema := relation.Schema{Name: def.Name}
	for _, c := range def.Columns {
		col := relation.Column{
			Name:    c.Name,
			Ordered: c.Ordered,
			Lo:      c.Lo,
			Hi:      c.Hi,
			Width:   c.Width,
		}
		switch c.Kind {
		case Int:
			col.Type = relation.Int
		case Float:
			col.Type = relation.Float
		case String:
			col.Type = relation.String
		default:
			return fmt.Errorf("deepsea: column %q has unknown kind %d", c.Name, c.Kind)
		}
		if col.Ordered && col.Type != relation.Int {
			return fmt.Errorf("deepsea: ordered column %q must be Int", c.Name)
		}
		schema.Cols = append(schema.Cols, col)
	}
	s.schemas[def.Name] = schema
	slab := relation.NewSlab(len(schema.Cols), relation.SlabRows)
	s.slabs[def.Name] = &slab
	s.ds.AddBaseTable(relation.NewTable(schema))
	return nil
}

// MustCreateTable is CreateTable that panics on error.
func (s *System) MustCreateTable(def TableDef) {
	if err := s.CreateTable(def); err != nil {
		panic(err)
	}
}

// Insert appends one row; values must match the table's columns in
// order (int64, float64 or string per column kind).
func (s *System) Insert(table string, values []any) error {
	schema, ok := s.schemas[table]
	if !ok {
		return fmt.Errorf("deepsea: unknown table %q", table)
	}
	if len(values) != len(schema.Cols) {
		return fmt.Errorf("deepsea: table %q wants %d values, got %d",
			table, len(schema.Cols), len(values))
	}
	slab := s.slabs[table]
	row := slab.Next()
	if err := convertRow(schema, values, row); err != nil {
		slab.Undo()
		return err
	}
	s.ds.Eng.BaseTable(table).Append(row)
	return nil
}

// convertRow converts one []any value tuple into row per the schema's
// column kinds; row must be as wide as the schema.
func convertRow(schema relation.Schema, values []any, row relation.Row) error {
	if len(values) != len(schema.Cols) {
		return fmt.Errorf("deepsea: table %q wants %d values, got %d",
			schema.Name, len(schema.Cols), len(values))
	}
	for i, v := range values {
		col := schema.Cols[i]
		switch col.Type {
		case relation.Int:
			x, ok := v.(int64)
			if !ok {
				if xi, oki := v.(int); oki {
					x, ok = int64(xi), true
				}
			}
			if !ok {
				return fmt.Errorf("deepsea: column %q wants int64, got %T", col.Name, v)
			}
			row[i] = relation.IntVal(x)
		case relation.Float:
			x, ok := v.(float64)
			if !ok {
				// JSON decoding normalizes integral numbers to int64; an
				// integral value in a float column is still a float.
				if xi, oki := v.(int64); oki {
					x, ok = float64(xi), true
				}
			}
			if !ok {
				return fmt.Errorf("deepsea: column %q wants float64, got %T", col.Name, v)
			}
			row[i] = relation.FloatVal(x)
		default:
			x, ok := v.(string)
			if !ok {
				return fmt.Errorf("deepsea: column %q wants string, got %T", col.Name, v)
			}
			row[i] = relation.StringVal(x)
		}
	}
	return nil
}

// AppendReport summarises one Append call: the table's new row count,
// the dependent views marked stale, and what the synchronous refresh
// did (see core.AppendReport).
type AppendReport = core.AppendReport

// IngestStats is the ingest surface of Health (see core.IngestStats).
type IngestStats = core.IngestStats

// RecoveredIngest reports what ApplyRecoveredAppends replayed and
// reconciled (see core.RecoveredIngest).
type RecoveredIngest = core.RecoveredIngest

// Append journals a batch of new rows for a base table, marks dependent
// materialized views stale, and brings them fresh again by incremental
// delta propagation (inline, or via the background maintenance pool's
// refresh band when one is configured). Unlike Insert — a load-time
// primitive that bypasses the view manager — Append is the online
// ingest path: safe under concurrent queries, durable when a datastore
// is attached, and never serves a query stale view content.
func (s *System) Append(table string, rows [][]any) (AppendReport, error) {
	converted, err := s.ConvertRows(table, rows)
	if err != nil {
		return AppendReport{}, err
	}
	return s.AppendRows(table, converted)
}

// AppendRows is Append for callers that already hold relation.Rows
// (serving tier, benchmarks).
func (s *System) AppendRows(table string, rows []relation.Row) (AppendReport, error) {
	return s.ds.Append(table, rows)
}

// ConvertRows type-checks an append batch against the table's schema and
// converts it to relation.Rows, so a serving tier can answer one caller's
// bad batch with a 400 before admission and land the converted rows with
// AppendRows.
func (s *System) ConvertRows(table string, rows [][]any) ([]relation.Row, error) {
	schema, ok := s.schemas[table]
	if !ok {
		return nil, fmt.Errorf("deepsea: unknown table %q", table)
	}
	converted := make([]relation.Row, len(rows))
	slab := relation.NewSlab(len(schema.Cols), len(rows))
	for i, values := range rows {
		converted[i] = slab.Next()
		if err := convertRow(schema, values, converted[i]); err != nil {
			return nil, err
		}
	}
	return converted, nil
}

// RoutingKeyIndex returns the column index of the table's shard-routing
// key — its ordered item_sk column — or -1 when the table has none
// (dimension tables are fully replicated, so any shard may append to
// them).
func (s *System) RoutingKeyIndex(table string) int {
	schema, ok := s.schemas[table]
	if !ok {
		return -1
	}
	for i, c := range schema.Cols {
		if c.Ordered && c.Type == relation.Int && strings.HasSuffix(c.Name, "item_sk") {
			return i
		}
	}
	return -1
}

// IngestStats returns the ingest counters.
func (s *System) IngestStats() IngestStats { return s.ds.IngestStats() }

// ApplyRecoveredAppends replays base-table appends recovered from the
// datastore onto the re-created base catalog and reconciles the view
// pool against the result. Call after CreateTable/Insert re-load the
// original tables and before serving traffic.
func (s *System) ApplyRecoveredAppends() (RecoveredIngest, error) {
	return s.ds.ApplyRecoveredAppends()
}

// MustInsert is Insert that panics on error.
func (s *System) MustInsert(table string, values []any) {
	if err := s.Insert(table, values); err != nil {
		panic(err)
	}
}

// Run processes a query through Algorithm 1 and returns the report,
// which includes the result rows, the simulated cost, and what the view
// manager did (rewrites, materializations, evictions).
func (s *System) Run(q *Query) (Report, error) {
	return s.RunContext(context.Background(), q)
}

// RunContext is Run with cancellation: when ctx is cancelled or its
// deadline passes, in-flight execution stops promptly, every lock and
// pin is released, and the error is ctx.Err(). The system stays fully
// usable afterwards.
func (s *System) RunContext(ctx context.Context, q *Query) (Report, error) {
	plan, err := q.build(s)
	if err != nil {
		return Report{}, err
	}
	rep, err := s.ds.ProcessQueryContext(ctx, plan)
	if err != nil {
		return Report{}, err
	}
	return Report{QueryReport: rep}, nil
}

// TemplateKey returns the query's plan-template fingerprint: queries
// that differ only in their range-predicate bounds share a key. It is
// not the result-cache key, which distinguishes exact bounds. Building
// the key resolves every table the query scans and every column it
// names against its operator's input, with the types the operator
// reads, so serving layers also use it to reject a bad query before
// admitting it.
func (s *System) TemplateKey(q *Query) (string, error) {
	plan, err := q.build(s)
	if err != nil {
		return "", err
	}
	return query.TemplateFingerprint(plan), nil
}

// MaintStats is the background maintenance pool's counter snapshot;
// see maintain.Stats for field documentation.
type MaintStats = maintain.Stats

// Health is a consistent operational snapshot of the system — pool
// occupancy versus the budget, quarantined files, views under
// materialization backoff or blacklisted, result-cache counters, and
// in-flight queries. See core.Health for field documentation.
type Health = core.Health

// Health returns the operational snapshot. Safe to call concurrently
// with query processing; it takes no manager lock.
func (s *System) Health() Health { return s.ds.Health() }

// Snapshot persists a consistent checkpoint of the whole system state
// (pool manifest, materialized files, statistics, cache generations)
// to the mounted datastore and truncates the journal behind it. It
// briefly quiesces planning, so call it between queries or on a timer,
// not per query. A no-op without WithDatastore. Recovery after a crash
// replays the latest snapshot plus the journal tail written since.
func (s *System) Snapshot() error { return s.ds.Snapshot() }

// Recovery reports what New's recovery pass did: whether a snapshot
// was loaded, how many journal records were replayed or skipped, and
// the fatal error (if any) that forced a cold start.
func (s *System) Recovery() core.RecoveryInfo { return s.ds.Recovery() }

// DrainMaintenance blocks until the background maintenance queue is
// empty and all in-flight tasks have committed, or ctx is done. A
// no-op (nil) without WithBackgroundMaintenance. Call it before
// comparing pool contents against an inline run, or before Snapshot
// when the checkpoint should include all enqueued work.
func (s *System) DrainMaintenance(ctx context.Context) error {
	return s.ds.DrainMaintenance(ctx)
}

// CloseMaintenance drains the queue and stops the background workers.
// Idempotent; a no-op without WithBackgroundMaintenance. After Close,
// queries still run but new maintenance candidates are dropped.
func (s *System) CloseMaintenance() { s.ds.CloseMaintenance() }

// MaintStats returns the maintenance pool's counters (in inline mode
// only refresh retries pass through it); see Health for the
// serving-oriented view.
func (s *System) MaintStats() MaintStats { return s.ds.MaintStats() }

// Now returns the simulated clock in seconds.
func (s *System) Now() float64 { return s.ds.Now() }

// OwnedRange describes the partition-key range a sharded instance
// owns; see System.SetOwnedRange.
type OwnedRange = core.OwnedRange

// SetOwnedRange declares this System one shard of a scatter-gather
// cluster, owning the contiguous partition-key range [lo, hi].
// Standalone systems never call this. Ownership is set once: a System
// that already owns a range keeps it. SetOwnedRange returns the range
// owned after the call, and whether it is [lo, hi]. The range is
// advisory to the engine (the shard still holds the full base tables —
// ownership controls which rows a coordinator routes here, and the view
// pool specializes to the ranges actually queried); the serving layer
// enforces it by rejecting out-of-range requests.
func (s *System) SetOwnedRange(lo, hi int64) (OwnedRange, bool) {
	return s.ds.SetOwnedRange(lo, hi)
}

// OwnedRange returns the declared shard range; ok is false for a
// standalone System.
func (s *System) OwnedRange() (r OwnedRange, ok bool) { return s.ds.OwnedRange() }

// PoolBytes returns the current materialized-pool size in bytes.
func (s *System) PoolBytes() int64 { return s.ds.Pool.TotalSize() }

// PoolContents describes the pool for inspection: one line per stored
// view or fragment.
func (s *System) PoolContents() []string {
	var out []string
	for _, pv := range s.ds.Pool.Views() {
		if pv.Path != "" {
			out = append(out, fmt.Sprintf("view %s (%d bytes)", pv.Path, pv.Size))
		}
		for attr, part := range pv.Parts {
			for _, f := range part.Fragments() {
				out = append(out, fmt.Sprintf("fragment %s on %s %s (%d bytes)",
					f.Path, attr, f.Iv, f.Size))
			}
		}
	}
	return out
}

// Report is the outcome of one query.
type Report struct {
	core.QueryReport
}

// Rows returns the result as [][]any (nil for the zero Report).
func (r Report) Rows() [][]any {
	if r.Result == nil {
		return nil
	}
	out := make([][]any, 0, len(r.Result.Rows))
	for _, row := range r.Result.Rows {
		vals := make([]any, len(row))
		for i, v := range row {
			switch r.Result.Schema.Cols[i].Type {
			case relation.Int:
				vals[i] = v.Int()
			case relation.Float:
				vals[i] = v.Float()
			default:
				vals[i] = v.Str()
			}
		}
		out = append(out, vals)
	}
	return out
}

// Columns returns the result column names.
func (r Report) Columns() []string {
	if r.Result == nil {
		return nil
	}
	out := make([]string, len(r.Result.Schema.Cols))
	for i, c := range r.Result.Schema.Cols {
		out[i] = c.Name
	}
	return out
}

// SimulatedSeconds returns the simulated elapsed time charged to the
// query (execution plus any materialization work).
func (r Report) SimulatedSeconds() float64 { return r.TotalSeconds }

// internal plan building -----------------------------------------------

// Query is a fluent relational query builder over base tables. A query
// is built when it is run (or its TemplateKey taken); building resolves
// every name against the input of the operator that names it, so an
// unknown table or column, or a column of a type the operator cannot
// read, is a "deepsea: …" error before any planning starts.
type Query struct {
	build func(*System) (query.Node, error)
}

// Scan starts a query from a base table.
func Scan(table string) *Query {
	return &Query{build: func(s *System) (query.Node, error) {
		schema, ok := s.schemas[table]
		if !ok {
			return nil, fmt.Errorf("deepsea: unknown table %q", table)
		}
		return query.NewScan(table, schema), nil
	}}
}

// Join equi-joins q with other on leftCol = rightCol.
func (q *Query) Join(other *Query, leftCol, rightCol string) *Query {
	return &Query{build: func(s *System) (query.Node, error) {
		l, err := q.build(s)
		if err != nil {
			return nil, err
		}
		r, err := other.build(s)
		if err != nil {
			return nil, err
		}
		lt, err := resolve(l, "join key", leftCol)
		if err != nil {
			return nil, err
		}
		rt, err := resolve(r, "join key", rightCol)
		if err != nil {
			return nil, err
		}
		if lt != rt {
			return nil, fmt.Errorf("deepsea: join keys %q (%s) and %q (%s) differ in type", leftCol, lt, rightCol, rt)
		}
		return &query.Join{Left: l, Right: r, LCol: leftCol, RCol: rightCol}, nil
	}}
}

// Select keeps only the named columns (map-side projection).
func (q *Query) Select(cols ...string) *Query {
	return &Query{build: func(s *System) (query.Node, error) {
		c, err := q.build(s)
		if err != nil {
			return nil, err
		}
		for _, col := range cols {
			if _, err := resolve(c, "select", col); err != nil {
				return nil, err
			}
		}
		return &query.Project{Child: c, Cols: cols}, nil
	}}
}

// Where restricts an ordered integer column to [lo, hi]. DeepSea uses
// these range selections to derive partition boundaries.
func (q *Query) Where(col string, lo, hi int64) *Query {
	return &Query{build: func(s *System) (query.Node, error) {
		c, err := q.build(s)
		if err != nil {
			return nil, err
		}
		if lo > hi {
			return nil, fmt.Errorf("deepsea: empty range [%d,%d] on %s", lo, hi, col)
		}
		if _, err := resolve(c, "where", col, relation.Int); err != nil {
			return nil, err
		}
		return &query.Select{Child: c,
			Ranges: []query.RangePred{{Col: col, Iv: interval.New(lo, hi)}}}, nil
	}}
}

// WhereEq adds an equality predicate on a string column.
func (q *Query) WhereEq(col, value string) *Query {
	return &Query{build: func(s *System) (query.Node, error) {
		c, err := q.build(s)
		if err != nil {
			return nil, err
		}
		if _, err := resolve(c, "where_eq", col, relation.String); err != nil {
			return nil, err
		}
		return &query.Select{Child: c, Residuals: []query.CmpPred{{
			Col: col, Op: query.Eq,
			Val: relation.StringVal(value), Typ: relation.String,
		}}}, nil
	}}
}

// AggSpec names one aggregate output.
type AggSpec struct{ spec query.AggSpec }

// Count counts rows per group, emitted as the named column.
func Count(as string) AggSpec {
	return AggSpec{spec: query.AggSpec{Func: query.Count, As: as}}
}

// Sum sums col per group.
func Sum(col, as string) AggSpec {
	return AggSpec{spec: query.AggSpec{Func: query.Sum, Col: col, As: as}}
}

// Avg averages col per group.
func Avg(col, as string) AggSpec {
	return AggSpec{spec: query.AggSpec{Func: query.Avg, Col: col, As: as}}
}

// Min takes the per-group minimum of col.
func Min(col, as string) AggSpec {
	return AggSpec{spec: query.AggSpec{Func: query.Min, Col: col, As: as}}
}

// Max takes the per-group maximum of col.
func Max(col, as string) AggSpec {
	return AggSpec{spec: query.AggSpec{Func: query.Max, Col: col, As: as}}
}

// Partial switches the query's top-level aggregation to partial mode:
// instead of final values it emits mergeable per-group states — counts,
// exact lossless sum encodings (see engine.MergePartialSums), and typed
// min/max — under "#"-suffixed column names. A scatter-gather
// coordinator runs the same query in partial mode on every shard and
// merges the states; because the sums are exact, the merged result is
// byte-identical for any partition of the rows across shards. Partial
// plans carry a distinct fingerprint and template key, so caches never
// conflate them with their full-mode twins. Calling Partial on a query
// whose top operator is not an aggregation is an error at Run time.
func (q *Query) Partial() *Query {
	return &Query{build: func(s *System) (query.Node, error) {
		n, err := q.build(s)
		if err != nil {
			return nil, err
		}
		agg, ok := n.(*query.Aggregate)
		if !ok {
			return nil, fmt.Errorf("deepsea: Partial() needs a top-level aggregation, got %T", n)
		}
		cp := *agg
		cp.Partial = true
		return &cp, nil
	}}
}

// Grouped is the intermediate state of GroupBy awaiting Agg.
type Grouped struct {
	q    *Query
	cols []string
}

// GroupBy starts an aggregation.
func (q *Query) GroupBy(cols ...string) *Grouped { return &Grouped{q: q, cols: cols} }

// Agg finishes the aggregation with the given aggregate outputs.
func (g *Grouped) Agg(aggs ...AggSpec) *Query {
	return &Query{build: func(s *System) (query.Node, error) {
		c, err := g.q.build(s)
		if err != nil {
			return nil, err
		}
		for _, col := range g.cols {
			if _, err := resolve(c, "group_by", col); err != nil {
				return nil, err
			}
		}
		specs := make([]query.AggSpec, len(aggs))
		for i, a := range aggs {
			specs[i] = a.spec
			var err error
			switch a.spec.Func {
			case query.Sum, query.Avg:
				_, err = resolve(c, a.spec.Func.String(), a.spec.Col, relation.Int, relation.Float)
			case query.Min, query.Max:
				_, err = resolve(c, a.spec.Func.String(), a.spec.Col)
			}
			if err != nil {
				return nil, err
			}
		}
		return &query.Aggregate{Child: c, GroupBy: g.cols, Aggs: specs}, nil
	}}
}

// resolve looks a column a builder names up in its input's output and
// returns its type, checking, when types are given, that it is one of
// them. Every builder resolves its names before it builds its node, so
// a built plan names only columns its inputs have, of the types its
// operators read: planning and execution never meet a missing one.
func resolve(in query.Node, role, name string, types ...relation.Type) (relation.Type, error) {
	typ, ok := query.ColumnType(in, name)
	if !ok {
		schema := in.Schema()
		return typ, fmt.Errorf("deepsea: %s column %q is not in %s", role, name, schema.String())
	}
	if len(types) > 0 && !slices.Contains(types, typ) {
		want := make([]string, len(types))
		for j, t := range types {
			want[j] = t.String()
		}
		return typ, fmt.Errorf("deepsea: %s column %q is %s, want %s", role, name, typ, strings.Join(want, " or "))
	}
	return typ, nil
}
