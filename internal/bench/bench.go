// Package bench implements the experiment harness that regenerates every
// table and figure of the paper's evaluation (Section 10). Each
// experiment builds its workload per the paper's description, runs the
// relevant strategy arms through the core system, and prints the same
// rows/series the paper reports. Absolute numbers are simulated seconds;
// the reproduced quantity is the *shape* — who wins, by what factor,
// where the crossovers fall (see EXPERIMENTS.md).
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"

	"deepsea/internal/core"
	"deepsea/internal/engine"
	"deepsea/internal/interval"
	"deepsea/internal/query"
	"deepsea/internal/workload"
)

// Params scales an experiment run. The Full preset follows the paper's
// setup; Short shrinks data and query counts so the whole suite runs in
// seconds (shapes are preserved).
type Params struct {
	// ScaleGB overrides the instance size (0 keeps each experiment's
	// paper value).
	ScaleGB int64
	// QueryFactor scales query counts (1.0 keeps paper values; Short
	// uses a fraction).
	QueryFactor float64
	// Seed drives all randomness.
	Seed int64
}

// Full returns paper-scale parameters.
func Full() Params { return Params{QueryFactor: 1, Seed: 1} }

// Short returns CI-scale parameters (about 10x smaller workloads).
func Short() Params { return Params{QueryFactor: 0.2, Seed: 1, ScaleGB: -1} }

// gb resolves an experiment's instance size: the paper default, the
// override, or the default divided by 5 in Short mode (ScaleGB == -1).
func (p Params) gb(paperGB int64) int64 {
	switch {
	case p.ScaleGB > 0:
		return p.ScaleGB
	case p.ScaleGB == -1:
		g := paperGB / 5
		if g < 10 {
			g = 10
		}
		return g
	default:
		return paperGB
	}
}

// queries scales a paper query count.
func (p Params) queries(paperN int) int {
	f := p.QueryFactor
	if f <= 0 {
		f = 1
	}
	n := int(float64(paperN) * f)
	if n < 10 {
		n = 10
	}
	return n
}

// defaultParallelism, when non-zero, is applied to every workload run
// whose configuration leaves Parallelism unset. The deepsea-bench
// command sets it from its -parallelism flag.
var defaultParallelism int

// SetDefaultParallelism sets the engine worker count used by subsequent
// workload runs (0 restores the engine default). Results are identical
// for every setting; only wall-clock time changes.
func SetDefaultParallelism(n int) { defaultParallelism = n }

// baseConfig returns the shared configuration: default cost model,
// unlimited pool.
func baseConfig() core.Config {
	cfg := core.DefaultConfig()
	cm := engine.DefaultCostModel()
	cfg.CostModel = &cm
	return cfg
}

// scaleCfg adapts the block size (and with it the fragment-size lower
// bound) when an experiment runs below its paper-scale instance size, so
// fragment granularity relative to view sizes — and therefore every
// result shape — is preserved in Short mode.
func scaleCfg(cfg core.Config, gb, paperGB int64) core.Config {
	if gb >= paperGB {
		return cfg
	}
	cm := *cfg.CostModel
	bs := int64(float64(cm.BlockSize) * float64(gb) / float64(paperGB))
	if bs < 1<<20 {
		bs = 1 << 20
	}
	cm.BlockSize = bs
	cfg.CostModel = &cm
	return cfg
}

// Strategy constructors for the paper's arms.

// HiveCfg is vanilla execution without materialization ("H").
func HiveCfg() core.Config {
	cfg := baseConfig()
	cfg.Materialize = false
	return cfg
}

// NPCfg materializes views without partitioning ("NP").
func NPCfg() core.Config {
	cfg := baseConfig()
	cfg.Partition = core.PartitionNone
	return cfg
}

// DSCfg is full DeepSea: adaptive overlapping partitioning, decayed
// benefits, MLE-smoothed fragment selection ("DS").
func DSCfg() core.Config { return baseConfig() }

// ReStoreCfg materializes unpartitioned views with ReStore-style
// physical matching only ("RS") — the paper's Section 2 contrast for
// its logical matching.
func ReStoreCfg() core.Config {
	cfg := baseConfig()
	cfg.Partition = core.PartitionNone
	cfg.PhysicalMatch = true
	return cfg
}

// DSHorizontalCfg is DeepSea restricted to horizontal (non-overlapping)
// partitioning, for the Figure 9 comparison.
func DSHorizontalCfg() core.Config {
	cfg := baseConfig()
	cfg.Partition = core.PartitionAdaptive
	return cfg
}

// EquiDepthCfg partitions views into k equal-row fragments ("E-k").
func EquiDepthCfg(k int) core.Config {
	cfg := baseConfig()
	cfg.Partition = core.PartitionEquiDepth
	cfg.EquiDepthK = k
	cfg.MaxFragFraction = 0
	return cfg
}

// NRCfg uses adaptive initial partitioning but never repartitions ("NR").
func NRCfg() core.Config {
	cfg := baseConfig()
	cfg.Partition = core.PartitionAdaptiveNoRepartition
	return cfg
}

// NectarCfg ranks pool items with Nectar's measure ("N").
func NectarCfg() core.Config {
	cfg := baseConfig()
	cfg.Selection = core.SelectNectar
	return cfg
}

// NectarPlusCfg ranks pool items with Nectar+ ("N+").
func NectarPlusCfg() core.Config {
	cfg := baseConfig()
	cfg.Selection = core.SelectNectarPlus
	return cfg
}

// RunResult summarises one strategy arm over one workload.
type RunResult struct {
	Name string
	// PerQuery holds each query's charged seconds (execution +
	// materialization).
	PerQuery []float64
	// ExecSeconds and MatSeconds split the total.
	ExecSeconds float64
	MatSeconds  float64
	// MapTasks counts map tasks issued across the workload (the cluster
	// utilization analysis of Section 10.2).
	MapTasks int64
	// Rewritten counts queries answered (at least partially) from views.
	Rewritten int
}

// Total returns the summed per-query seconds.
func (r *RunResult) Total() float64 {
	var t float64
	for _, s := range r.PerQuery {
		t += s
	}
	return t
}

// Cumulative returns the running totals.
func (r *RunResult) Cumulative() []float64 {
	out := make([]float64, len(r.PerQuery))
	var t float64
	for i, s := range r.PerQuery {
		t += s
		out[i] = t
	}
	return out
}

// RunWorkload executes the query sequence under the given configuration
// over a fresh system seeded with the dataset's tables.
func RunWorkload(name string, data *workload.Data, queries []query.Node, cfg core.Config) (*RunResult, error) {
	if cfg.Parallelism == 0 {
		cfg.Parallelism = defaultParallelism
	}
	d := core.New(cfg)
	for _, t := range data.Tables {
		d.AddBaseTable(t)
	}
	res := &RunResult{Name: name}
	for i, q := range queries {
		rep, err := d.ProcessQuery(q)
		if err != nil {
			return nil, fmt.Errorf("bench %s query %d: %w", name, i, err)
		}
		res.PerQuery = append(res.PerQuery, rep.TotalSeconds)
		res.ExecSeconds += rep.ExecCost.Seconds
		res.MatSeconds += rep.MatCost.Seconds
		res.MapTasks += rep.ExecCost.MapTasks
		if rep.Rewritten {
			res.Rewritten++
		}
	}
	return res, nil
}

// templateQueries instantiates one template over a range sequence.
func templateQueries(data *workload.Data, tpl workload.Template, ranges []interval.Interval) []query.Node {
	out := make([]query.Node, len(ranges))
	for i, iv := range ranges {
		out[i] = data.Query(tpl, iv)
	}
	return out
}

// mixedQueries instantiates a random template per range, drawing from
// all ten templates (the Section 10.1 workload).
func mixedQueries(data *workload.Data, ranges []interval.Interval, rng *rand.Rand) []query.Node {
	out := make([]query.Node, len(ranges))
	for i, iv := range ranges {
		tpl := workload.AllTemplates[rng.Intn(len(workload.AllTemplates))]
		out[i] = data.Query(tpl, iv)
	}
	return out
}

// newTabWriter returns the shared table formatting.
func newTabWriter(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}
