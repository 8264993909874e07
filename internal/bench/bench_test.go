package bench

import (
	"math/rand"
	"strings"
	"testing"

	"deepsea/internal/workload"
)

// tiny returns parameters small enough for unit tests.
func tiny() Params {
	return Params{ScaleGB: 10, QueryFactor: 0.01, Seed: 1}
}

func TestParamsScaling(t *testing.T) {
	full := Full()
	if full.gb(500) != 500 || full.queries(1000) != 1000 {
		t.Error("Full() altered paper parameters")
	}
	short := Short()
	if short.gb(500) != 100 {
		t.Errorf("Short gb(500) = %d, want 100", short.gb(500))
	}
	if short.queries(1000) != 200 {
		t.Errorf("Short queries(1000) = %d, want 200", short.queries(1000))
	}
	if short.queries(20) != 10 {
		t.Errorf("query floor: %d, want 10", short.queries(20))
	}
	override := Params{ScaleGB: 42}
	if override.gb(500) != 42 {
		t.Error("explicit ScaleGB ignored")
	}
}

func TestScaleCfgPreservesGranularity(t *testing.T) {
	cfg := DSCfg()
	scaled := scaleCfg(cfg, 100, 500)
	if scaled.CostModel.BlockSize >= cfg.CostModel.BlockSize {
		t.Error("block size not scaled down")
	}
	same := scaleCfg(cfg, 500, 500)
	if same.CostModel.BlockSize != cfg.CostModel.BlockSize {
		t.Error("paper scale should be unscaled")
	}
}

func TestStrategyConfigs(t *testing.T) {
	if HiveCfg().Materialize {
		t.Error("Hive config materializes")
	}
	if EquiDepthCfg(7).EquiDepthK != 7 {
		t.Error("equi-depth k not set")
	}
	for _, cfg := range []struct {
		name string
		m    bool
	}{{"NP", NPCfg().Materialize}, {"DS", DSCfg().Materialize}, {"NR", NRCfg().Materialize}} {
		if !cfg.m {
			t.Errorf("%s config does not materialize", cfg.name)
		}
	}
}

func TestRunWorkloadCollectsPerQueryCosts(t *testing.T) {
	p := tiny()
	data := workload.Generate(p.gb(10), p.Seed, nil)
	rng := rand.New(rand.NewSource(1))
	ranges := workload.Ranges(5, workload.Small, workload.Heavy, workload.ItemSkDomain(), rng)
	queries := templateQueries(data, workload.Q30, ranges)
	r, err := RunWorkload("t", data, queries, scaleCfg(DSCfg(), 10, 100))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PerQuery) != 5 {
		t.Fatalf("PerQuery = %d entries", len(r.PerQuery))
	}
	if r.Total() <= 0 {
		t.Error("zero total")
	}
	cum := r.Cumulative()
	if cum[4] != r.Total() {
		t.Error("cumulative tail != total")
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Error("cumulative not monotone")
		}
	}
}

func TestProjectTo100(t *testing.T) {
	r := &RunResult{PerQuery: []float64{100, 10, 10, 10, 10, 10, 10, 10, 10, 10}}
	// cum(10)=190; steady slope 10 => 190 + 90*10 = 1090.
	if got := projectTo100(r); got != 1090 {
		t.Errorf("projectTo100 = %g, want 1090", got)
	}
}

func TestRecoupPoint(t *testing.T) {
	arm := &RunResult{PerQuery: []float64{50, 5, 5, 5}}
	base := &RunResult{PerQuery: []float64{20, 20, 20, 20}}
	// Cumulative: arm 50,55,60,65; base 20,40,60,80 -> crossover at 3.
	if got := recoupPoint(arm, base); got != 3 {
		t.Errorf("recoupPoint = %d, want 3", got)
	}
	never := &RunResult{PerQuery: []float64{100, 100, 100, 100}}
	if got := recoupPoint(never, base); got != 0 {
		t.Errorf("recoupPoint(never) = %d, want 0", got)
	}
}

func TestLookupAndIDs(t *testing.T) {
	if _, ok := Lookup("fig5a"); !ok {
		t.Error("fig5a not registered")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("unknown id found")
	}
	ids := IDs()
	if len(ids) != len(Experiments) {
		t.Error("IDs() length mismatch")
	}
}

func TestRunAndPrintUnknown(t *testing.T) {
	var sb strings.Builder
	if err := RunAndPrint(&sb, "nope", tiny()); err == nil {
		t.Error("unknown experiment did not error")
	}
}

func TestFig1AndFig2Run(t *testing.T) {
	var sb strings.Builder
	if err := RunAndPrint(&sb, "fig1", tiny()); err != nil {
		t.Fatal(err)
	}
	if err := RunAndPrint(&sb, "fig2", tiny()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Figure 1", "Figure 2", "hits", "median"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestFig6RunsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("workload experiment")
	}
	res, err := RunFig6(Params{ScaleGB: 20, QueryFactor: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Arms) != 5 {
		t.Fatalf("arms = %d", len(res.Arms))
	}
	// Creation cost grows with fragment count (Figure 6a's shape).
	if res.Creation(res.Arms[4]) <= res.Creation(res.Arms[1]) {
		t.Errorf("E-60 creation (%.0f) not above E-6 (%.0f)",
			res.Creation(res.Arms[4]), res.Creation(res.Arms[1]))
	}
	var sb strings.Builder
	res.Print(&sb)
	if !strings.Contains(sb.String(), "E-60") {
		t.Error("print missing arm")
	}
}

func TestFig9OverlapNotWorse(t *testing.T) {
	if testing.Short() {
		t.Skip("workload experiment")
	}
	res, err := RunFig9(Params{ScaleGB: 20, QueryFactor: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Overlapping.Total() > res.Horizontal.Total()*1.05 {
		t.Errorf("overlapping (%.0f) materially worse than horizontal (%.0f)",
			res.Overlapping.Total(), res.Horizontal.Total())
	}
}

func TestTab1AllCellsRewrite(t *testing.T) {
	if testing.Short() {
		t.Skip("workload experiment")
	}
	res, err := RunTab1(Params{ScaleGB: 10, QueryFactor: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Rewritten == 0 {
			t.Errorf("cell %s/%s/%s never reused a view",
				row.PoolLabel, row.Selectivity, row.Skew)
		}
	}
}

func TestSensitivityShapesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("workload experiment")
	}
	res, err := RunSensitivity(Params{ScaleGB: 20, QueryFactor: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if !row.EBeatNP {
			t.Errorf("%s: partitioning lost to NP", row.Model)
		}
	}
	// DS must win under at least 3/4 of the perturbed models.
	wins := 0
	for _, row := range res.Rows {
		if row.DSWins {
			wins++
		}
	}
	if wins*4 < len(res.Rows)*3 {
		t.Errorf("DS wins only %d/%d models", wins, len(res.Rows))
	}
}
