package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"deepsea/internal/core"
	"deepsea/internal/query"
	"deepsea/internal/relation"
	"deepsea/internal/workload"
)

// TestDifferentialAllStrategies is the heavyweight end-to-end property:
// a randomized multi-template workload over the BigBench-flavoured
// generator must produce byte-identical results under every strategy —
// vanilla (pushed-down) execution, every baseline, and full DeepSea with
// merging — across materialization, progressive refinement, partial
// covers with remainder queries, and pool-pressure eviction.
func TestDifferentialAllStrategies(t *testing.T) {
	if testing.Short() {
		t.Skip("heavyweight differential test")
	}
	const gb = 10
	data := workload.Generate(gb, 7, nil)
	rng := rand.New(rand.NewSource(77))

	// 25 queries: random template, random selectivity class, drifting
	// hot spot that jumps once mid-workload.
	var queries []query.Node
	dom := workload.ItemSkDomain()
	for i := 0; i < 25; i++ {
		tpl := workload.AllTemplates[rng.Intn(len(workload.AllTemplates))]
		sel := []float64{workload.Small, workload.Medium, workload.Big}[rng.Intn(3)]
		center := int64(120000)
		if i >= 13 {
			center = 310000
		}
		iv := workload.RangesAround(1, sel, workload.Heavy, dom, center, rng)[0]
		queries = append(queries, data.Query(tpl, iv))
	}

	vanilla, err := runWorkloadTables(data, queries, HiveCfg())
	if err != nil {
		t.Fatal(err)
	}

	arms := map[string]core.Config{
		"NP":       scaleCfg(NPCfg(), gb, 100),
		"E-8":      scaleCfg(EquiDepthCfg(8), gb, 100),
		"DS":       scaleCfg(DSCfg(), gb, 100),
		"DS-H":     scaleCfg(DSHorizontalCfg(), gb, 100),
		"NR":       scaleCfg(NRCfg(), gb, 100),
		"N":        scaleCfg(NectarCfg(), gb, 100),
		"N+":       scaleCfg(NectarPlusCfg(), gb, 100),
		"DS-tight": func() core.Config { c := scaleCfg(DSCfg(), gb, 100); c.Smax = 1 << 28; return c }(),
		"DS-merge": func() core.Config { c := scaleCfg(DSCfg(), gb, 100); c.MergeFragments = true; return c }(),
	}
	for name, cfg := range arms {
		got, err := runWorkloadTables(data, queries, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range vanilla {
			if err := sameRows(vanilla[i], got[i]); err != nil {
				t.Fatalf("%s: query %d: %v", name, i, err)
			}
		}
	}
}

// runWorkloadTables runs the workload and returns each query's result.
func runWorkloadTables(data *workload.Data, queries []query.Node, cfg core.Config) ([]*relation.Table, error) {
	d := core.New(cfg)
	for _, tbl := range data.Tables {
		d.AddBaseTable(tbl)
	}
	out := make([]*relation.Table, 0, len(queries))
	for _, q := range queries {
		rep, err := d.ProcessQuery(q)
		if err != nil {
			return nil, err
		}
		out = append(out, rep.Result)
	}
	return out, nil
}

// sameRows compares two result tables as multisets, with a relative
// tolerance on float columns: fragment covers sum floating-point values
// in a different order than a full scan, so bit-exact equality is not
// the right contract for aggregates like SUM(price).
func sameRows(a, b *relation.Table) error {
	if a.NumRows() != b.NumRows() {
		return fmt.Errorf("%d rows vs %d", a.NumRows(), b.NumRows())
	}
	key := func(t *relation.Table, r relation.Row) string {
		s := ""
		for i, v := range r {
			switch t.Schema.Cols[i].Type {
			case relation.Float:
				s += fmt.Sprintf("|%.6e", v.Float()) // tolerance via rounding
			case relation.Int:
				s += fmt.Sprintf("|%d", v.Int())
			default:
				s += "|" + v.Str()
			}
		}
		return s
	}
	ka := make([]string, a.NumRows())
	kb := make([]string, b.NumRows())
	for i := range a.Rows {
		ka[i] = key(a, a.Rows[i])
		kb[i] = key(b, b.Rows[i])
	}
	sort.Strings(ka)
	sort.Strings(kb)
	for i := range ka {
		if ka[i] != kb[i] {
			return fmt.Errorf("row %d: %q vs %q", i, ka[i], kb[i])
		}
	}
	return nil
}
