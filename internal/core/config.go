// Package core implements DeepSea's query-processing loop (Algorithm 1):
// matching, statistics updates, rewriting selection, view and partition
// candidate generation (Definitions 6 and 7), candidate filtering and
// value-ranked selection (Section 7), query instrumentation, and pool
// maintenance. Baseline systems (Hive, NP, equi-depth, Nectar, Nectar+,
// no-repartitioning) are configurations of the same loop.
package core

import (
	"deepsea/internal/datastore"
	"deepsea/internal/engine"
	"deepsea/internal/faults"
	"deepsea/internal/relation"
	"deepsea/internal/storage"
)

// PartitionMode selects how materialized views are partitioned.
type PartitionMode int

// Partitioning strategies.
const (
	// PartitionNone stores each view as a single file (the paper's NP
	// baseline, akin to ReStore with logical matching).
	PartitionNone PartitionMode = iota
	// PartitionEquiDepth partitions each view into EquiDepthK fragments
	// holding equally many rows at creation time and never refines (the
	// paper's E-k baseline).
	PartitionEquiDepth
	// PartitionAdaptive partitions views on the workload-derived
	// boundaries and progressively refines by splitting fragments
	// (horizontal partitioning: splits rewrite their parents).
	PartitionAdaptive
	// PartitionAdaptiveOverlap is PartitionAdaptive with overlapping
	// fragments: refinements write only the new fragment and keep the
	// parents (DeepSea's default, Section 3).
	PartitionAdaptiveOverlap
	// PartitionAdaptiveNoRepartition uses the workload-derived initial
	// partitioning but never refines afterwards (the paper's NR
	// baseline, Section 10.4).
	PartitionAdaptiveNoRepartition
)

// String returns the evaluation-section abbreviation of the mode.
func (m PartitionMode) String() string {
	switch m {
	case PartitionNone:
		return "NP"
	case PartitionEquiDepth:
		return "E"
	case PartitionAdaptive:
		return "DS-H"
	case PartitionAdaptiveOverlap:
		return "DS"
	case PartitionAdaptiveNoRepartition:
		return "NR"
	default:
		return "?"
	}
}

// SelectionPolicy selects the value measure used to rank views and
// fragments during pool selection.
type SelectionPolicy int

// Selection policies.
const (
	// SelectDeepSea ranks by Φ with decayed benefits and MLE-adjusted
	// fragment hits (the full model of Section 7.1).
	SelectDeepSea SelectionPolicy = iota
	// SelectDeepSeaRawHits is SelectDeepSea without the probabilistic
	// smoothing — fragments are ranked on their raw decayed hits
	// (ablation of the fragment-correlation model).
	SelectDeepSeaRawHits
	// SelectNectar ranks by the plain Nectar measure (most recent
	// saving, no accumulation, no decay).
	SelectNectar
	// SelectNectarPlus ranks by Nectar+, which accumulates benefit but
	// applies no decay (Section 10.1).
	SelectNectarPlus
)

// String returns the evaluation-section abbreviation of the policy.
func (p SelectionPolicy) String() string {
	switch p {
	case SelectDeepSea:
		return "DS"
	case SelectDeepSeaRawHits:
		return "DS-raw"
	case SelectNectar:
		return "N"
	case SelectNectarPlus:
		return "N+"
	default:
		return "?"
	}
}

// Config assembles a DeepSea instance or one of the paper's baselines.
type Config struct {
	// Smax is the pool size limit in bytes (0 = unlimited).
	Smax int64
	// Materialize enables view materialization entirely; false gives the
	// vanilla Hive baseline.
	Materialize bool
	// Partition selects the partitioning strategy.
	Partition PartitionMode
	// EquiDepthK is the fragment count for PartitionEquiDepth.
	EquiDepthK int
	// Selection selects the candidate/eviction value measure.
	Selection SelectionPolicy
	// DecayTMax is the benefit timeout of the decay function in
	// simulated seconds (0 = no timeout).
	DecayTMax float64
	// MaxFragFraction is the paper's φ: fragments larger than
	// φ·S(V) are split at materialization time. 0 disables the bound.
	MaxFragFraction float64
	// MinFragBytes is the lower bound for fragment sizes; 0 selects the
	// file-system block size, as in the paper.
	MinFragBytes int64
	// PhysicalMatch restricts view matching to exact signature equality
	// (no compensating selections or projections) — ReStore-style
	// physical matching, the weaker alternative the paper contrasts its
	// logical matching with (Section 2).
	PhysicalMatch bool
	// NoGuards disables guard fragments (the medium fragments carved
	// next to hot pieces); ablation knob.
	NoGuards bool
	// NoByproduct disables by-product pricing of overlap-mode
	// refinements (they then pay read + write like horizontal splits);
	// ablation knob.
	NoByproduct bool
	// MergeFragments enables the paper's Section 11 extension: adjacent
	// small fragments that are repeatedly co-accessed by the same
	// queries are merged into one, reducing per-file read overheads.
	MergeFragments bool
	// CostModel configures the simulated cluster; zero value selects
	// engine.DefaultCostModel.
	CostModel *engine.CostModel
	// ExecuteRows selects real row execution (true) or the estimate-only
	// simulator mode.
	ExecuteRows bool
	// Parallelism is the engine's data-path worker count; 0 keeps the
	// engine default (runtime.GOMAXPROCS), 1 forces sequential
	// execution. Results are byte-identical for every setting.
	Parallelism int
	// CacheBytes bounds the fingerprint-keyed result cache (bytes of
	// cached rows); 0 disables caching. Only meaningful with
	// ExecuteRows: in estimate-only mode there are no rows to cache.
	CacheBytes int64
	// Faults configures deterministic fault injection into storage, the
	// engine's workers and materialization (chaos testing); nil — the
	// default — runs fault-free at the cost of one pointer comparison
	// per injection site.
	Faults *faults.Config
	// FaultRetries bounds how many times one query is retried after a
	// recoverable fault (a quarantined fragment read, a transient worker
	// fault) before its error is returned; 0 selects the default (3).
	FaultRetries int
	// Datastore is the persistence boundary: pool, statistics and
	// materialized-file mutations journal through it and recovery replays
	// them on construction. nil — the default — keeps the historical
	// in-memory-only behaviour (as does datastore.Null). The caller owns
	// the store's lifecycle (Close after the instance drains).
	Datastore datastore.Store
	// MaintWorkers moves pool maintenance (materialization, splits,
	// merges, eviction, refresh) off the query and append path onto a
	// background worker pool with this many workers: queries
	// enqueue Φ-ranked maintenance candidates and return after execution,
	// never paying materialization cost. With 0 — the default — the
	// query or append that proposed the same tasks applies them itself,
	// through the same apply code (inline maintenance; see maintain.go).
	MaintWorkers int
	// MaintQueue bounds the maintenance queue; when full, new
	// candidates are dropped (they will be re-proposed by later queries
	// over the same ranges). 0 selects the default (1024). Inline mode
	// queues only refresh retries.
	MaintQueue int
}

// DefaultConfig returns the full DeepSea system with an unlimited pool.
func DefaultConfig() Config {
	return Config{
		Materialize: true,
		Partition:   PartitionAdaptiveOverlap,
		Selection:   SelectDeepSea,
		// Benefits time out after ~ the span of a few dozen cluster-scale
		// queries, so the hit model re-centres after a workload shift
		// (the paper's tmax; Section 7.1).
		DecayTMax:       3000,
		MaxFragFraction: 0.1,
		ExecuteRows:     true,
	}
}

func (c *Config) minFragBytes() int64 {
	if c.MinFragBytes > 0 {
		return c.MinFragBytes
	}
	if c.CostModel != nil && c.CostModel.BlockSize > 0 {
		return c.CostModel.BlockSize
	}
	return storage.DefaultBlockSize
}

func (c *Config) adaptive() bool {
	switch c.Partition {
	case PartitionAdaptive, PartitionAdaptiveOverlap, PartitionAdaptiveNoRepartition:
		return true
	default:
		return false
	}
}

func (c *Config) refines() bool {
	switch c.Partition {
	case PartitionAdaptive, PartitionAdaptiveOverlap:
		return true
	default:
		return false
	}
}

func (c *Config) overlapping() bool {
	return c.Partition == PartitionAdaptiveOverlap
}

// cacheMaxEntryFraction is the cost-aware cache admission guard: a
// result larger than this fraction of CacheBytes is never cached, so one
// giant result cannot evict the whole working set.
const cacheMaxEntryFraction = 1.0 / 8

// defaultFaultRetries is the per-query retry bound when Config leaves
// FaultRetries at zero.
const defaultFaultRetries = 3

func (c *Config) faultRetries() int {
	if c.FaultRetries > 0 {
		return c.FaultRetries
	}
	return defaultFaultRetries
}

// defaultMaintQueue bounds the background maintenance queue when Config
// leaves MaintQueue at zero.
const defaultMaintQueue = 1024

func (c *Config) maintQueue() int {
	if c.MaintQueue > 0 {
		return c.MaintQueue
	}
	return defaultMaintQueue
}

// background reports whether maintenance runs on the worker pool rather
// than inline on the query goroutine.
func (c *Config) background() bool { return c.MaintWorkers > 0 }

// QueryReport summarises how one query was processed.
type QueryReport struct {
	// Result holds the query output (nil in estimate-only mode).
	Result *relation.Table
	// ExecCost is the simulated cost of running the (possibly rewritten)
	// query.
	ExecCost engine.Cost
	// MatCost is the simulated cost of view/fragment materialization and
	// repartitioning charged to this query.
	MatCost engine.Cost
	// TotalSeconds is ExecCost + MatCost in seconds — the elapsed time
	// the workload pays for this query.
	TotalSeconds float64
	// CacheHit reports that the result came from the result cache; the
	// query then skipped Algorithm 1 entirely and paid no simulated
	// cost.
	CacheHit bool
	// Rewritten reports whether a view was used.
	Rewritten bool
	// UsedView is the id of the view read (empty if none).
	UsedView string
	// FragmentsRead is the number of fragments the rewriting read.
	FragmentsRead int
	// RemainderGaps is the number of uncovered gaps computed from base
	// data.
	RemainderGaps int
	// MaterializedViews and MaterializedFrags list what was created.
	MaterializedViews []string
	MaterializedFrags []string
	// MergedFrags lists fragments produced by co-access merging (the
	// Section 11 extension; only with Config.MergeFragments).
	MergedFrags []string
	// Evicted lists pool items removed to make space.
	Evicted []string
	// Quarantined lists storage paths removed from the pool because a
	// read of them failed while answering this query; the query was then
	// re-answered around them from base data.
	Quarantined []string
	// MatFailed lists views whose materialization attempt failed during
	// this query (the query itself still succeeded; the view is under
	// backoff and may be blacklisted after repeated failures).
	MatFailed []string
	// Retries is how many times the query was re-executed after
	// recoverable faults before this (successful) answer.
	Retries int
	// DeferredMaintenance reports that pool maintenance for this query
	// was enqueued to the background pool instead of applied inline
	// (Config.MaintWorkers > 0): MatCost is then zero and the
	// Materialized*/Merged/Evicted lists are empty — the work lands
	// asynchronously and is charged to the background clock.
	DeferredMaintenance bool
	// MaintTasksEnqueued is how many maintenance tasks this query
	// proposed to the background pool (deduplicated tasks still count;
	// only meaningful with DeferredMaintenance).
	MaintTasksEnqueued int
}
