package bench

import (
	"fmt"
	"math/rand"
	"testing"

	"deepsea/internal/core"
	"deepsea/internal/query"
	"deepsea/internal/workload"
)

// parallelArms runs the same workload at parallelism 1 and 8 on fresh
// systems and fails if any query's result or the final file system
// differs — the byte-identical guarantee over realistic workloads.
func parallelArms(t *testing.T, data *workload.Data, queries []query.Node, cfg core.Config) {
	t.Helper()
	// runArm returns each query's result fingerprint and the final
	// file-system listing.
	runArm := func(par int) (prints []string, files string) {
		cfg.Parallelism = par
		d := core.New(cfg)
		for _, tbl := range data.Tables {
			d.AddBaseTable(tbl)
		}
		for i, q := range queries {
			rep, err := d.ProcessQuery(q)
			if err != nil {
				t.Fatalf("parallelism %d query %d: %v", par, i, err)
			}
			prints = append(prints, rep.Result.Fingerprint())
		}
		for _, f := range d.Eng.FS().List() {
			files += fmt.Sprintf("%s:%d\n", f.Path, f.Size)
		}
		return prints, files
	}
	seqPrints, seqFiles := runArm(1)
	parPrints, parFiles := runArm(8)
	for i := range seqPrints {
		if seqPrints[i] != parPrints[i] {
			t.Errorf("query %d: parallelism changed the result", i)
		}
	}
	if seqFiles != parFiles {
		t.Error("parallelism changed the final file system")
	}
}

// TestFig5WorkloadDeterministicAcrossParallelism checks the SDSS-shaped
// Figure 5 workload (mixed templates, trace-derived ranges).
func TestFig5WorkloadDeterministicAcrossParallelism(t *testing.T) {
	p := Short()
	data, queries := sdssWorkload(p)
	if len(queries) > 30 {
		queries = queries[:30]
	}
	parallelArms(t, data, queries, scaleCfg(DSCfg(), data.GB, 500))
}

// TestFig7WorkloadDeterministicAcrossParallelism checks a Figure 7
// setting (heavy skew, small selectivity, Q30 template).
func TestFig7WorkloadDeterministicAcrossParallelism(t *testing.T) {
	p := Short()
	gb := p.gb(500)
	data := workload.Generate(gb, p.Seed, nil)
	rng := rand.New(rand.NewSource(p.Seed + 10))
	ranges := workload.Ranges(20, workload.Small, workload.Heavy, workload.ItemSkDomain(), rng)
	queries := templateQueries(data, workload.Q30, ranges)
	parallelArms(t, data, queries, scaleCfg(DSCfg(), gb, 500))
}
