package engine_test

import (
	"math"
	"testing"

	"deepsea/internal/engine"
	"deepsea/internal/interval"
	"deepsea/internal/query"
	"deepsea/internal/workload"
)

// TestEstimateCostTracksRun: the rewriter and candidate generation price
// plans with EstimateCost before anything runs, so the estimate must
// track what Run then charges. For every template at 1%, 5% and 50%
// selectivity over two dataset sizes, the estimate of the plan and of
// every view-candidate subplan is within 2% of the run's cost.
func TestEstimateCostTracksRun(t *testing.T) {
	const tolerance = 0.02
	dom := workload.ItemSkDomain()
	worst, nodes := 0.0, 0
	for _, gb := range []int64{1, 100} {
		data := workload.Generate(gb, 7, nil)
		e := engine.New(engine.DefaultCostModel())
		for _, tbl := range data.Tables {
			e.AddBaseTable(tbl)
		}
		for _, tpl := range workload.AllTemplates {
			for _, sel := range []float64{0.01, 0.05, 0.5} {
				width := int64(sel * float64(dom.Len()))
				lo := dom.Lo + dom.Len()/4
				plan := data.Query(tpl, interval.New(lo, lo+width-1))
				for _, n := range append([]query.Node{plan}, query.CandidateNodes(plan)...) {
					est, err := e.EstimateCost(n)
					if err != nil {
						t.Fatalf("%dGB/%s/%g: estimate: %v", gb, tpl, sel, err)
					}
					res, err := e.Run(n, nil)
					if err != nil {
						t.Fatalf("%dGB/%s/%g: run: %v", gb, tpl, sel, err)
					}
					dev := math.Abs(est.Seconds/res.Cost.Seconds - 1)
					if dev > tolerance {
						t.Errorf("%dGB/%s/%g: %T estimated %.3fs, ran %.3fs (%.2f%% off)",
							gb, tpl, sel, n, est.Seconds, res.Cost.Seconds, 100*dev)
					}
					worst = max(worst, dev)
					nodes++
				}
			}
		}
	}
	t.Logf("worst deviation %.2f%% over %d nodes", 100*worst, nodes)
}
